/**
 * @file
 * Property-based fuzz of core checkpoint/restore: for seeded random
 * traces and core configurations, a core that is warmed up, saved,
 * and allowed to continue must produce counter-identical statistics
 * to a fresh core restored from the same snapshot — with every
 * LVPSIM_CHECK pipeline invariant holding along the restored run.
 * The same holds for a core stopped mid-flight, restored from memory
 * or from encoded bytes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/binio.hh"
#include "core/composite.hh"
#include "pipeline/core.hh"
#include "pipeline/snapshot_io.hh"
#include "qa/generators.hh"
#include "qa/property.hh"

using namespace lvpsim;

namespace
{

std::vector<std::pair<std::string, std::uint64_t>>
flat(const pipe::SimStats &s)
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    pipe::forEachCounter(
        s, [&](std::string_view name, std::uint64_t v) {
            out.emplace_back(std::string(name), v);
        });
    return out;
}

const std::vector<pipe::ComponentId> kComponents = {
    pipe::ComponentId::LVP, pipe::ComponentId::SAP,
    pipe::ComponentId::CVP, pipe::ComponentId::CAP};

} // anonymous namespace

TEST(CheckpointFuzz, RestoredCoreMatchesContinuedCore)
{
    const auto res = qa::forAllSeeds(
        25, 0xc4ec9, [](qa::Gen &g) -> bool {
            qa::TraceGenConfig tcfg;
            tcfg.minOps = 512;
            tcfg.maxOps = 3000;
            const auto code = qa::genTrace(g, tcfg);
            const auto ccfg = qa::genCoreConfig(g);
            const auto warm = g.range(32, code.size() / 2);
            const auto comp = g.pick(kComponents);

            // One core warms up, is photographed, and continues.
            auto vp1 = vp::makeSinglePredictor(comp, 256);
            pipe::Core continued(ccfg, code, vp1.get());
            continued.warmup(warm);
            pipe::Core::Snapshot snap;
            continued.saveState(snap);
            const auto s1 = continued.run();

            // A fresh core (fresh predictor — the VP is untouched
            // during warmup by construction) restores and runs.
            auto vp2 = vp::makeSinglePredictor(comp, 256);
            pipe::Core restored(ccfg, code, vp2.get());
            restored.restoreState(snap);
            const auto s2 = restored.run();

            if (flat(s1) != flat(s2))
                throw std::runtime_error(
                    "restored-core stats diverged from the "
                    "continued core");
            return true;
        });
    EXPECT_TRUE(res.ok) << res.describe();
    EXPECT_EQ(res.casesRun, 25u);
}

TEST(CheckpointFuzz, SnapshotIsReusableAcrossPredictors)
{
    // One snapshot, many measurement runs — the sweep-engine usage
    // pattern. Restoring must not consume or mutate the snapshot.
    const auto res = qa::forAllSeeds(
        8, 0x5eed5, [](qa::Gen &g) -> bool {
            qa::TraceGenConfig tcfg;
            tcfg.minOps = 512;
            tcfg.maxOps = 2048;
            const auto code = qa::genTrace(g, tcfg);
            const auto ccfg = qa::genCoreConfig(g);
            const auto warm = g.range(32, code.size() / 2);

            pipe::Core warmer(ccfg, code, nullptr);
            warmer.warmup(warm);
            pipe::Core::Snapshot snap;
            warmer.saveState(snap);

            std::vector<std::vector<
                std::pair<std::string, std::uint64_t>>> first;
            for (int round = 0; round < 2; ++round) {
                for (std::size_t c = 0; c < kComponents.size();
                     ++c) {
                    auto vp =
                        vp::makeSinglePredictor(kComponents[c], 128);
                    pipe::Core core(ccfg, code, vp.get());
                    core.restoreState(snap);
                    const auto stats = flat(core.run());
                    if (round == 0)
                        first.push_back(stats);
                    else if (first[c] != stats)
                        throw std::runtime_error(
                            "second restore from the same snapshot "
                            "diverged");
                }
            }
            return true;
        });
    EXPECT_TRUE(res.ok) << res.describe();
}

TEST(CheckpointFuzz, MidFlightRestoreMatchesContinuedCore)
{
    // The other tests restore quiescent snapshots. Here the core is
    // stopped mid-run, with instructions in the ROB, IQ and PAQ, so
    // restoreState must rebuild the scheduler's derived indexes (slot
    // handles, wakeup lists, ready list, calendars) from the queues
    // alone: once from an in-memory copy, and once from encoded bytes,
    // whose decode repacks every ring from slot 0.
    std::size_t with_paq = 0;
    const auto res = qa::forAllSeeds(
        25, 0x3d71, [&](qa::Gen &g) -> bool {
            qa::TraceGenConfig tcfg;
            tcfg.minOps = 1024;
            tcfg.maxOps = 3000;
            const auto code = qa::genTrace(g, tcfg);
            const auto ccfg = qa::genCoreConfig(g);
            const auto stop = g.range(64, code.size() / 2);
            const auto comp = g.pick(kComponents);

            // Predictor state is outside the snapshot, so each
            // restored core gets a predictor driven to the same point
            // by an identical twin core.
            auto stopped = [&](pipe::Core::Snapshot *snap) {
                auto vp = vp::makeSinglePredictor(comp, 256);
                auto core = std::make_unique<pipe::Core>(ccfg, code,
                                                         vp.get());
                core->run(stop);
                if (snap)
                    core->saveState(*snap);
                return std::make_pair(std::move(vp), std::move(core));
            };

            pipe::Core::Snapshot snap;
            auto continued = stopped(&snap);
            if (snap.pipeline.rob.empty() || snap.pipeline.iqCount == 0)
                throw std::runtime_error("stop point is not mid-flight");
            with_paq += snap.pipeline.paq.empty() ? 0 : 1;

            BinWriter w;
            pipe::serializeSnapshot(w, snap);
            const auto bytes = w.take();
            BinReader r(bytes);
            pipe::Core::Snapshot decoded;
            pipe::deserializeSnapshot(r, decoded);
            if (!r.ok() || !r.atEnd())
                throw std::runtime_error("mid-flight snapshot decode");

            const auto expect = flat(continued.second->run());
            for (const auto *from : {&snap, &decoded}) {
                auto twin = stopped(nullptr);
                pipe::Core restored(ccfg, code, twin.first.get());
                restored.restoreState(*from);
                if (flat(restored.run()) != expect)
                    throw std::runtime_error(
                        from == &snap
                            ? "in-memory mid-flight restore diverged"
                            : "decoded mid-flight restore diverged");
            }
            return true;
        });
    EXPECT_TRUE(res.ok) << res.describe();
    EXPECT_EQ(res.casesRun, 25u);
    // Address predictions sit in the PAQ at some stop points.
    EXPECT_GT(with_paq, 0u);
}
