/**
 * @file
 * Fundamental scalar types shared by every lvpsim library.
 */

#pragma once

#include <cstdint>

namespace lvpsim
{

/** Virtual byte address (the paper models 49-bit virtual addresses). */
using Addr = std::uint64_t;

/** A 64-bit architectural data value. */
using Value = std::uint64_t;

/** Simulated clock cycle. */
using Cycle = std::uint64_t;

/** Global dynamic instruction sequence number (1-based; 0 = invalid). */
using InstSeqNum = std::uint64_t;

/** Architectural register identifier. */
using RegId = std::uint8_t;

/** Sentinel meaning "no register". */
constexpr RegId invalidReg = 0xff;

/** Number of modeled architectural integer registers. */
constexpr RegId numArchRegs = 64;

static_assert(numArchRegs < invalidReg,
              "every architectural register id must fit below the "
              "no-register sentinel");

} // namespace lvpsim

