#pragma once
// Set-associative LRU cache model.
//
// Used to *verify* the paper's central claim rather than take it on faith:
// replaying a scheme's address stream through this model shows CATS incurring
// close to compulsory misses per time chunk while the naive scheme misses the
// whole domain every sweep, and validates that the Eq. 1/2 sizing really
// keeps CS wavefronts resident (tests/ and bench/ablation_misses).

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cats {

class CacheModel {
 public:
  /// bytes must be a multiple of ways * line; line a power of two.
  CacheModel(std::size_t bytes, int ways, int line_bytes);

  /// Touch one byte address; returns true on hit. Loads and stores are
  /// treated alike (allocate-on-write, as on the paper's machines).
  bool access(std::uint64_t addr);

  /// Touch every line overlapping [addr, addr + len).
  void access_range(std::uint64_t addr, std::size_t len);

  /// Classic (write-allocate) store: identical line behavior and hit/miss
  /// counting to access(), but a miss is additionally recorded as an RFO
  /// (read-for-ownership line fill) and the bytes as eventually
  /// written back.
  bool write(std::uint64_t addr);
  void write_range(std::uint64_t addr, std::size_t len);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t accesses() const { return hits_ + misses_; }
  std::uint64_t miss_bytes() const { return misses_ * static_cast<std::uint64_t>(line_); }

  /// Write misses among misses(): line fills performed only for ownership.
  std::uint64_t write_misses() const { return write_misses_; }
  std::uint64_t rfo_bytes() const { return write_misses_ * static_cast<std::uint64_t>(line_); }
  /// Every byte stored through write_range (all reach DRAM eventually, as a
  /// dirty write-back).
  std::uint64_t stored_bytes() const { return stored_bytes_; }

  /// Modeled DRAM transfer: line fills (read misses + RFOs) plus every
  /// stored byte.
  std::uint64_t dram_bytes() const { return miss_bytes() + stored_bytes_; }

  std::size_t size_bytes() const { return sets_ * static_cast<std::size_t>(ways_) * line_; }
  int ways() const { return ways_; }
  int line_bytes() const { return line_; }

  void reset_counters() {
    hits_ = misses_ = 0;
    write_misses_ = stored_bytes_ = 0;
  }
  void flush();  ///< invalidate all lines and reset counters

 private:
  struct Way {
    std::uint64_t tag = ~0ull;
    std::uint64_t stamp = 0;
    bool valid = false;
  };

  std::size_t sets_;
  int ways_;
  int line_;
  int line_shift_;
  std::vector<Way> entries_;  // sets_ * ways_
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0, misses_ = 0;
  std::uint64_t write_misses_ = 0;
  std::uint64_t stored_bytes_ = 0;
};

}  // namespace cats
