#include "tpg/lfsr.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace lsiq::tpg {

/// Maximal-length feedback masks (taps at the positions of the polynomial's
/// nonzero coefficients, excluding x^width). Standard published taps; the
/// small widths exist for MISRs whose aliasing should be observable.
std::uint64_t maximal_taps(int width) {
  switch (width) {
    case 4:  return 0xCULL;                 // x^4 + x^3 + 1
    case 8:  return 0xB8ULL;                // x^8 + x^6 + x^5 + x^4 + 1
    case 16: return 0xB400ULL;              // x^16 + x^14 + x^13 + x^11 + 1
    case 24: return 0xE10000ULL;            // x^24 + x^23 + x^22 + x^17 + 1
    case 32: return 0x80200003ULL;          // x^32 + x^22 + x^2 + x + 1
    case 48: return 0xC00000180000ULL;      // x^48 + x^47 + x^21 + x^20 + 1
    case 64: return 0xD800000000000000ULL;  // x^64 + x^63 + x^61 + x^60 + 1
    default:
      throw Error("maximal_taps: unsupported width " +
                  std::to_string(width) +
                  " (use 4, 8, 16, 24, 32, 48 or 64)");
  }
}

bool has_maximal_taps(int width) noexcept {
  switch (width) {
    case 4: case 8: case 16: case 24: case 32: case 48: case 64:
      return true;
    default:
      return false;
  }
}

Lfsr::Lfsr(int width, std::uint64_t seed)
    : width_(width),
      taps_(maximal_taps(width)),
      mask_(width == 64 ? ~0ULL : ((1ULL << width) - 1)),
      state_(seed & mask_) {
  if (state_ == 0) {
    state_ = 1;  // the all-zero state is the one fixed point; avoid it
  }
}

bool Lfsr::next_bit() {
  const bool out = (state_ & 1ULL) != 0;
  state_ >>= 1;
  if (out) {
    state_ ^= taps_;
  }
  state_ &= mask_;
  return out;
}

std::uint64_t Lfsr::period() const noexcept {
  if (width_ == 64) return ~0ULL;  // 2^64 - 1
  return (1ULL << width_) - 1;
}

namespace {

/// A Galois LFSR step is linear over GF(2), so 64 steps are too: the state
/// 64 steps on and the 64 bits shifted out on the way are each an XOR of
/// one table entry per byte of the current state.
class Jump64 {
 public:
  explicit Jump64(int width)
      : bytes_((static_cast<std::size_t>(width) + 7) / 8), table_(bytes_) {
    // The jump of each single-bit state, then every byte value as the XOR
    // of its lowest set bit's jump and the jump of the remaining bits.
    std::vector<Entry> single(8 * bytes_);
    for (int bit = 0; bit < width; ++bit) {
      Lfsr lfsr(width, 1ULL << bit);
      for (int t = 0; t < 64; ++t) {
        if (lfsr.next_bit()) single[bit].out |= 1ULL << t;
      }
      single[bit].next = lfsr.state();
    }
    for (std::size_t j = 0; j < bytes_; ++j) {
      for (unsigned v = 1; v < 256; ++v) {
        const Entry& low = single[8 * j + std::countr_zero(v)];
        const Entry& rest = table_[j][v & (v - 1)];
        table_[j][v] = Entry{rest.next ^ low.next, rest.out ^ low.out};
      }
    }
  }

  /// Advance `state` 64 steps; returns the bits shifted out, the first in
  /// bit 0.
  std::uint64_t step(std::uint64_t& state) const {
    std::uint64_t next = 0;
    std::uint64_t out = 0;
    for (std::size_t j = 0; j < bytes_; ++j) {
      const Entry& entry = table_[j][(state >> (8 * j)) & 0xFF];
      next ^= entry.next;
      out ^= entry.out;
    }
    state = next;
    return out;
  }

 private:
  struct Entry {
    std::uint64_t next = 0;
    std::uint64_t out = 0;
  };
  std::size_t bytes_;
  std::vector<std::array<Entry, 256>> table_;
};

/// In-place transpose of a 64 x 64 bit matrix: afterwards bit j of m[i]
/// is the former bit i of m[j]. Swaps the off-diagonal quadrants at
/// every scale, 32 x 32 down to 1 x 1.
void transpose64(std::uint64_t* m) {
  std::uint64_t mask = 0x00000000FFFFFFFFULL;
  for (std::size_t j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (std::size_t k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((m[k] >> j) ^ m[k + j]) & mask;
      m[k] ^= t << j;
      m[k + j] ^= t;
    }
  }
}

}  // namespace

sim::PatternSet lfsr_patterns(std::size_t input_count, std::size_t count,
                              std::uint64_t seed, int width) {
  LSIQ_EXPECT(input_count > 0, "lfsr_patterns: input_count must be > 0");
  const Lfsr lfsr(width, seed);
  const Jump64 jump(width);
  std::uint64_t state = lfsr.state();
  sim::PatternSet patterns(input_count);
  // A block of 64 patterns is 64 x input_count consecutive register
  // outputs — exactly input_count output words — with pattern p's bits
  // starting at bit p * input_count. Each run of 64 inputs is gathered as
  // a 64 x 64 bit matrix (row = pattern) and transposed into one word per
  // input (bit = pattern), the layout PatternSet stores.
  std::vector<std::uint64_t> stream(input_count + 1, 0);
  std::vector<std::uint64_t> columns(input_count);
  std::array<std::uint64_t, 64> matrix{};
  for (std::size_t first = 0; first < count; first += 64) {
    for (std::size_t w = 0; w < input_count; ++w) {
      stream[w] = jump.step(state);
    }
    for (std::size_t base = 0; base < input_count; base += 64) {
      for (std::size_t p = 0; p < 64; ++p) {
        const std::size_t bit = p * input_count + base;
        const std::size_t shift = bit % 64;
        std::uint64_t row = stream[bit / 64] >> shift;
        if (shift != 0) row |= stream[bit / 64 + 1] << (64 - shift);
        matrix[p] = row;
      }
      transpose64(matrix.data());
      const std::size_t inputs = std::min<std::size_t>(64, input_count - base);
      for (std::size_t k = 0; k < inputs; ++k) columns[base + k] = matrix[k];
    }
    patterns.append_block(columns, std::min<std::size_t>(64, count - first));
  }
  return patterns;
}

sim::PatternSet random_walk_patterns(std::size_t input_count,
                                     std::size_t count,
                                     std::size_t flips_per_step,
                                     std::uint64_t seed) {
  LSIQ_EXPECT(input_count > 0, "random_walk_patterns: input_count > 0");
  LSIQ_EXPECT(flips_per_step >= 1 && flips_per_step <= input_count,
              "random_walk_patterns: flips_per_step in [1, input_count]");
  util::Rng rng(seed);
  sim::PatternSet patterns(input_count);
  std::vector<bool> state(input_count, false);
  for (std::size_t n = 0; n < count; ++n) {
    patterns.append(state);
    for (const std::uint64_t bit :
         rng.sample_without_replacement(input_count, flips_per_step)) {
      state[static_cast<std::size_t>(bit)] =
          !state[static_cast<std::size_t>(bit)];
    }
  }
  return patterns;
}

}  // namespace lsiq::tpg
