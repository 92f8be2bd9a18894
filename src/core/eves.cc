#include "core/eves.hh"

#include <cmath>

#include "common/bitutils.hh"
#include "core/vp_params.hh"

namespace lvpsim
{
namespace vp
{

namespace
{

/** E-Stride confidence: effective 64 consecutive observations. */
const FpcVector &
strideFpc()
{
    static const FpcVector v{1.0, 1.0, 0.5, 0.25, 0.125, 0.0625,
                             0.03125};
    return v;
}

/** E-VTAGE confidence: effective ~16 consecutive observations. */
const FpcVector &
vtageFpc()
{
    static const FpcVector v{1.0, 0.5, 0.25, 0.125};
    return v;
}

constexpr unsigned strideEntryBits = 14 + 64 + 16 + 3; // 97
constexpr unsigned baseEntryBits = 64 + 3;             // 67
constexpr unsigned taggedEntryBits = 14 + 64 + 3 + 1;  // 82

} // anonymous namespace

EvesPredictor::EvesPredictor(const EvesConfig &config)
    : cfg(config), rng(cfg.seed)
{
    strideTable.configure(cfg.strideEntries, 1);
    base.assign(cfg.baseEntries, BaseEntry{});
    tagged.resize(cfg.numTagged);
    histLen.resize(cfg.numTagged);
    const double ratio =
        std::pow(double(cfg.maxHist) / cfg.minHist,
                 1.0 / std::max(1u, cfg.numTagged - 1));
    double len = cfg.minHist;
    for (unsigned t = 0; t < cfg.numTagged; ++t) {
        tagged[t].configure(cfg.taggedEntries, 1);
        histLen[t] = std::max<unsigned>(1, unsigned(len + 0.5));
        if (t > 0 && histLen[t] <= histLen[t - 1])
            histLen[t] = histLen[t - 1] + 1;
        len *= ratio;
        const unsigned bits = 2 * histLen[t];
        foldIdx.emplace_back(
            bits, std::max(1u, ceilLog2(cfg.taggedEntries)));
        foldTag.emplace_back(bits, tagBits);
    }
    lvp_assert(histLen.empty() || 2 * histLen.back() < ring.capacity(),
               "EVES history length %u exceeds the history ring",
               histLen.empty() ? 0 : histLen.back());
}

std::uint64_t
EvesPredictor::taggedIndex(Addr pc, unsigned t) const
{
    // Nonlinear mix: see Cvp::index for why a plain XOR of folded
    // values can alias context families on loopy code.
    const unsigned raw_bits = std::min(2 * histLen[t], 20u);
    return mix64((pc >> 2) ^
                 (std::uint64_t(foldIdx[t].value()) << 24) ^
                 (pathHist & mask(raw_bits)) ^
                 (std::uint64_t(t) << 56));
}

std::uint64_t
EvesPredictor::taggedTag(Addr pc, unsigned t) const
{
    return ((pc >> 2) ^ (pc >> 16) ^ foldTag[t].value() ^
            (std::uint64_t(foldTag[t].value()) << 1)) &
           mask(tagBits);
}

pipe::Prediction
EvesPredictor::predict(const pipe::LoadProbe &probe)
{
    pipe::Prediction result;
    result.component = pipe::ComponentId::Other;

    // E-Stride first: it captures sequences VTAGE cannot.
    const auto *sw = strideTable.lookup(
        probe.pc >> 2, ((probe.pc >> 2) ^ (probe.pc >> 16)) &
                           mask(tagBits));
    bool stride_hit = false;
    if (sw && sw->payload.conf.atLeast(cfg.strideConfThreshold)) {
        const std::int64_t steps =
            std::int64_t(probe.inflightSamePc) + 1;
        result.kind = pipe::Prediction::Kind::Value;
        result.value =
            Value(std::int64_t(sw->payload.lastValue) +
                  steps * sw->payload.stride);
        stride_hit = true;
    }

    // E-VTAGE: longest matching tagged table, else the base table.
    Snapshot snap;
    snap.idx.resize(cfg.numTagged);
    snap.tag.resize(cfg.numTagged);
    for (unsigned t = 0; t < cfg.numTagged; ++t) {
        snap.idx[t] = taggedIndex(probe.pc, t);
        snap.tag[t] = taggedTag(probe.pc, t);
    }
    Value vtage_value = 0;
    bool vtage_conf = false;
    for (int t = int(cfg.numTagged) - 1; t >= 0; --t) {
        const auto *way = tagged[t].lookup(snap.idx[t], snap.tag[t]);
        if (way) {
            snap.provider = t;
            vtage_value = way->payload.value;
            vtage_conf =
                way->payload.conf.atLeast(cfg.vtageConfThreshold);
            break;
        }
    }
    if (snap.provider < 0) {
        const BaseEntry &b = base[fastMod(probe.pc >> 2, base.size())];
        vtage_value = b.value;
        vtage_conf = b.conf.atLeast(cfg.vtageConfThreshold);
    }
    snapshots[probe.token] = std::move(snap);

    if (!stride_hit && vtage_conf) {
        result.kind = pipe::Prediction::Kind::Value;
        result.value = vtage_value;
    }
    return result;
}

void
EvesPredictor::train(const pipe::LoadOutcome &o)
{
    // ---- E-Stride update --------------------------------------------
    bool hit = false;
    auto &sw = strideTable.allocate(
        o.pc >> 2, ((o.pc >> 2) ^ (o.pc >> 16)) & mask(tagBits),
        &hit);
    StrideEntry &se = sw.payload;
    if (!hit) {
        se.lastValue = o.value;
        se.stride = 0;
        se.seenOnce = true;
        se.conf.reset();
    } else {
        const std::int64_t delta =
            std::int64_t(o.value) - std::int64_t(se.lastValue);
        if (fitsSigned(delta, 16)) {
            if (se.seenOnce && delta == se.stride) {
                se.conf.increment(strideFpc(), rng);
            } else {
                se.stride = delta;
                se.conf.reset();
            }
        } else {
            se.stride = 0;
            se.conf.reset();
        }
        se.lastValue = o.value;
        se.seenOnce = true;
    }

    // ---- E-VTAGE update ---------------------------------------------
    auto it = snapshots.find(o.token);
    if (it == snapshots.end())
        return;
    const Snapshot snap = std::move(it->second);
    snapshots.erase(it);

    bool provider_correct = false;
    if (snap.provider >= 0) {
        auto *way = tagged[snap.provider].lookup(
            snap.idx[snap.provider], snap.tag[snap.provider]);
        if (way) {
            TaggedEntry &e = way->payload;
            if (e.value == o.value) {
                e.conf.increment(vtageFpc(), rng);
                if (e.conf.atLeast(cfg.vtageConfThreshold))
                    e.useful = 1;
                provider_correct = true;
            } else if (e.conf.value() == 0) {
                e.value = o.value;
                e.useful = 0;
            } else {
                e.conf.reset();
            }
        }
    } else {
        BaseEntry &b = base[fastMod(o.pc >> 2, base.size())];
        if (b.value == o.value) {
            b.conf.increment(vtageFpc(), rng);
            provider_correct = true;
        } else {
            b.value = o.value;
            b.conf.reset();
        }
    }

    // VTAGE-style allocation into one longer table when the provider
    // failed: steal the resident entry only if its useful bit is
    // clear, otherwise decay the useful bit and try the next table.
    if (!provider_correct) {
        const unsigned start = unsigned(snap.provider + 1);
        for (unsigned t = start; t < cfg.numTagged; ++t) {
            auto &way = tagged[t].wayAt(snap.idx[t]);
            if (!way.valid || way.payload.useful == 0) {
                way.valid = true;
                way.tag = snap.tag[t];
                way.payload = TaggedEntry{};
                way.payload.value = o.value;
                break;
            }
            way.payload.useful = 0;
        }
    }
}

void
EvesPredictor::abandon(std::uint64_t token)
{
    snapshots.erase(token);
}

void
EvesPredictor::notifyBranch(Addr pc, bool taken, Addr target)
{
    (void)target;
    pathHist = (pathHist << 2) | (taken ? 2 : 0) | ((pc >> 2) & 1);
    pushHistoryBit(taken ? 1 : 0);
    pushHistoryBit(unsigned((pc >> 2) & 1));
}

void
EvesPredictor::pushHistoryBit(unsigned in)
{
    ring.push(in);
    for (unsigned t = 0; t < cfg.numTagged; ++t) {
        const unsigned out = ring.at(2 * histLen[t]);
        foldIdx[t].shift(in, out);
        foldTag[t].shift(in, out);
    }
}

std::uint64_t
EvesPredictor::storageBits() const
{
    return std::uint64_t(cfg.strideEntries) * strideEntryBits +
           std::uint64_t(cfg.baseEntries) * baseEntryBits +
           std::uint64_t(cfg.numTagged) * cfg.taggedEntries *
               taggedEntryBits;
}

} // namespace vp
} // namespace lvpsim
