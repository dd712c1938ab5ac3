// Common fixed-width aliases and physical-unit helpers used across the library.
#pragma once

#include <cstdint>
#include <cstddef>

namespace dnnd {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i8 = std::int8_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;
using usize = std::size_t;
using isize = std::ptrdiff_t;

/// All simulator timestamps and durations are integer picoseconds.
/// Picoseconds keep every DRAM timing parameter exactly representable
/// (tCK of DDR4-2400 is 833.33ps; we round to integer ps per parameter,
/// never per accumulation step).
using Picoseconds = i64;

namespace time_literals {
constexpr Picoseconds operator""_ps(unsigned long long v) { return static_cast<Picoseconds>(v); }
constexpr Picoseconds operator""_ns(unsigned long long v) { return static_cast<Picoseconds>(v) * 1000; }
constexpr Picoseconds operator""_us(unsigned long long v) { return static_cast<Picoseconds>(v) * 1000 * 1000; }
constexpr Picoseconds operator""_ms(unsigned long long v) { return static_cast<Picoseconds>(v) * 1000 * 1000 * 1000; }
constexpr Picoseconds operator""_s(unsigned long long v) { return static_cast<Picoseconds>(v) * 1000LL * 1000 * 1000 * 1000; }
}  // namespace time_literals

/// Convert picoseconds to floating-point convenience units (reporting only).
constexpr double ps_to_ns(Picoseconds t) { return static_cast<double>(t) / 1e3; }
constexpr double ps_to_us(Picoseconds t) { return static_cast<double>(t) / 1e6; }
constexpr double ps_to_ms(Picoseconds t) { return static_cast<double>(t) / 1e9; }
constexpr double ps_to_s(Picoseconds t) { return static_cast<double>(t) / 1e12; }

/// Energy bookkeeping unit: femtojoules (integer), so picojoule-scale DRAM
/// op energies stay exact.
using Femtojoules = i64;

constexpr double fj_to_uj(Femtojoules e) { return static_cast<double>(e) / 1e9; }

}  // namespace dnnd
