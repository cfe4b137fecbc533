/**
 * @file
 * FNV-1a hashing and fixed-width hex codecs.
 *
 * The checkpoint journal checksums its records with FNV-1a and stores
 * doubles as IEEE-754 bit patterns written as hex. It needs three
 * ingredients — a 64-bit FNV-1a hash, a 16-digit lowercase hex
 * encoder, and its strict decoder — so they live here,
 * dependency-free.
 *
 * FNV-1a is not cryptographic; collisions are possible and every
 * consumer must tolerate them (the checkpoint journal re-runs a job on
 * checksum mismatch).
 */

#ifndef MEMSENSE_UTIL_HASH_HH
#define MEMSENSE_UTIL_HASH_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace memsense
{

/** 64-bit FNV-1a of a byte string. */
std::uint64_t fnv1a64(std::string_view bytes);

/** @p v as 16 lowercase hex digits. */
std::string hex64(std::uint64_t v);

/** Strict inverse of hex64(): exactly 16 lowercase hex digits. */
std::optional<std::uint64_t> parseHex64(std::string_view word);

} // namespace memsense

#endif // MEMSENSE_UTIL_HASH_HH
