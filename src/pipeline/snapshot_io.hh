/**
 * @file
 * Binary (de)serialization of the pipeline checkpoint state — the
 * bridge between `pipe::Core::Snapshot` and the on-disk checkpoint
 * store (src/sim/checkpoint_store.hh, docs/performance.md).
 *
 * There are no per-class serializers. Every checkpointable class keeps
 * its mutable state in one `State` struct whose
 * `template <class V> void fields(V &v)` names the members once, in
 * encode order; one generic writer and one generic reader walk those
 * lists. Arithmetic members encode at their own width, containers
 * (`std::array`, `std::vector`, `RingBuffer`, `FlatMap`) element by
 * element. Only types that hide an invariant behind accessors
 * (`FoldedHistory`, `HistoryRing`, `Xoshiro256`, `Prediction`,
 * `std::vector<bool>`, `SimStats`) have hand-written codecs.
 *
 * Vectors and copy-on-write arrays of fixed-width elements (integers,
 * or structs of them, such as cache lines) decode a whole vector or
 * chunk after one bounds check.
 *
 * Deserialization is *total*: structurally or semantically invalid
 * input flips the BinReader's sticky fail flag (checked by the store,
 * which treats it as a miss) and never asserts or throws. A decoded
 * struct that declares `bool wellFormed() const` is checked with it.
 * Decoding alone does not make a snapshot safe to restore: a
 * well-formed stream can still carry vectors, rings or folds of the
 * wrong size for the core it is restored into, and the core indexes
 * them by mask. The store compares a decoded snapshot's
 * snapshotShape() with that of a core built from the run's config and
 * treats a mismatch as a miss.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/binio.hh"
#include "pipeline/core.hh"

namespace lvpsim
{
namespace pipe
{

/**
 * Bumped whenever any serializeSnapshot encoding changes shape.
 * Mismatched versions are store misses, never decode attempts.
 */
constexpr std::uint32_t kSnapshotFormatVersion = 1;

/**
 * Counters travel as (FNV-1a name hash, value) pairs: renaming,
 * adding, or removing a counter changes the stream and turns stale
 * store entries into misses automatically.
 */
void serializeSnapshot(BinWriter &w, const SimStats &s);
void deserializeSnapshot(BinReader &r, SimStats &s);

void serializeSnapshot(BinWriter &w, const Core::Snapshot &s);
void deserializeSnapshot(BinReader &r, Core::Snapshot &s);

/**
 * The geometry of @p s, walked through the same fields() lists as the
 * codec: every vector's size, every ring buffer's and history ring's
 * capacity and every fold's lengths, in encode order. Two snapshots
 * with equal shapes can be restored into the same cores.
 */
std::vector<std::uint64_t> snapshotShape(const Core::Snapshot &s);

} // namespace pipe
} // namespace lvpsim
