// Blocked kernel bodies, compiled once per x86-64 micro-architecture level.
//
// This translation unit is built up to three times by CMake with different
// -march flags and -DPIT_BLOCKED_ISA_NS={base,v3,v4}; blocked.cpp picks
// the widest variant the host CPU supports at runtime. Keeping the ISA
// split at the translation-unit level (instead of per-function `target`
// attributes or `target_clones`) guarantees the OpenMP-outlined loop
// bodies are compiled for the same ISA as their enclosing kernel, which
// GCC does not promise for attribute-based multi-versioning.
//
// Every kernel here holds its accumulators in named vector registers
// across the whole reduction and touches its output exactly once:
//   - forward / backward-input: a kCoTile x (1 or 2 vectors) output tile,
//     reduced over c x k, so each loaded input vector feeds kCoTile FMAs;
//   - backward-weight: a kCoTile x kTapTile block of per-(co, ci, tap)
//     partial sums kept in vector lanes across the whole (n, t)
//     reduction, reduced horizontally once per output element.
// Reads that would leave a row (the implicit causal zero padding, ragged
// tails, strided taps) come from a small staged copy instead of per-lane
// bounds checks: a window of one row for forward / backward-input, one
// input channel across the batch for backward-weight — never a whole
// layer. Strided taps are staged as stride-phase rows (x[u*s + r] for
// each residue r), which turns every tap into a contiguous vector read.
// Stride-1 backward-input gathers; strided backward-input keeps the
// scalar scatter loop shape under a channel-ownership grid, where scatter
// aliasing makes tiling pointless.
//
// Thread safety without atomics: each cell of the OpenMP grid owns a
// disjoint slice of the output, so results are bitwise identical at any
// thread count.
#include <algorithm>
#include <vector>

#include "nn/kernels/registry.hpp"

#ifndef PIT_BLOCKED_ISA_NS
#define PIT_BLOCKED_ISA_NS base
#endif

namespace pit::nn::kernels::blocked {
namespace PIT_BLOCKED_ISA_NS {
namespace {

constexpr index_t kCoTile = 4;  // output rows held in registers

// ---- Vector vocabulary ---------------------------------------------------
//
// Passing 64-byte vectors by value trips -Wpsabi on targets narrower than
// AVX-512 (the call ABI for such values differs per ISA level). Every
// vector-typed function here is internal to this TU and inlined, so the
// ABI note is irrelevant; silence it for the rest of the TU — GCC emits
// psABI notes at late codegen, so a push/pop region cannot scope it.
#pragma GCC diagnostic ignored "-Wpsabi"

// All kernels are written with GCC vector extensions: a 16-float vector
// the compiler lowers to one zmm (v4), two ymm (v3) or four xmm (base) per
// operation. Accumulator tiles are arrays of these with compile-time
// extents, fully unrolled, so they live in registers.
using vf = float __attribute__((vector_size(64)));

constexpr index_t kVf = 16;               // floats per vf
constexpr index_t kInferTTile = 2 * kVf;  // time steps per register tile
static_assert(kInferTTile == kPackTimeTile,
              "runtime padding contract must match the register tile");

// Taps per backward-weight register block: kCoTile x kTapTile vector
// accumulators plus kCoTile dy vectors must fit the register file (32
// zmm with AVX-512; 16 ymm otherwise, where a vf takes two).
#ifdef __AVX512F__
constexpr int kTapTile = 4;
#else
constexpr int kTapTile = 2;
#endif

inline vf load16(const float* p) {
  vf v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

inline void store16(float* p, const vf& v) {
  __builtin_memcpy(p, &v, sizeof(v));
}

inline vf splat(float s) {
  const vf v = {s, s, s, s, s, s, s, s, s, s, s, s, s, s, s, s};
  return v;
}

inline index_t round_up(index_t v, index_t m) { return (v + m - 1) / m * m; }

/// Sum of the 16 lanes, as a halving tree.
inline float hsum(vf v) {
  v += __builtin_shufflevector(v, v, 8, 9, 10, 11, 12, 13, 14, 15, 8, 9, 10,
                               11, 12, 13, 14, 15);
  v += __builtin_shufflevector(v, v, 4, 5, 6, 7, 4, 5, 6, 7, 4, 5, 6, 7, 4,
                               5, 6, 7);
  v += __builtin_shufflevector(v, v, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2,
                               3, 2, 3);
  v += __builtin_shufflevector(v, v, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                               1, 1, 1);
  return v[0];
}

/// Writes the first `nt` elements of the 32-wide register tile row;
/// lanes past nt (tail garbage from slack over-reads) are dropped.
inline void store_tile_row(float* yrow, const vf& lo, const vf& hi,
                           index_t nt, bool relu) {
  if (nt == kInferTTile && !relu) {
    store16(yrow, lo);
    store16(yrow + kVf, hi);
    return;
  }
  float tmp[kInferTTile];
  store16(tmp, lo);
  store16(tmp + kVf, hi);
  if (relu) {
    for (index_t t = 0; t < nt; ++t) {
      yrow[t] = tmp[t] > 0.0F ? tmp[t] : 0.0F;
    }
  } else {
    for (index_t t = 0; t < nt; ++t) {
      yrow[t] = tmp[t];
    }
  }
}

/// row[t] += the tile row's result for t < nt: acc[0..1] are its two
/// time vectors (TV == 2) or two partial sums of one (TV == 1).
template <int TV>
inline void add_tile(float* row, const vf (&acc)[2], index_t nt) {
  float tmp[TV * kVf];
  if constexpr (TV == 2) {
    if (nt == 2 * kVf) {
      store16(row, load16(row) + acc[0]);
      store16(row + kVf, load16(row + kVf) + acc[1]);
      return;
    }
    store16(tmp, acc[0]);
    store16(tmp + kVf, acc[1]);
  } else {
    store16(tmp, acc[0] + acc[1]);
  }
  for (index_t t = 0; t < nt; ++t) {
    row[t] += tmp[t];
  }
}

/// Stages the stride-phase row out[j] = row[(u0 + j) * s + r] for
/// j < len, zero wherever that index leaves [0, limit). With s == 1 this
/// is a zero-padded copy of row[u0, u0 + len).
inline void stage_phase(const float* row, index_t u0, index_t len, index_t s,
                        index_t r, index_t limit, float* out) {
  const index_t u_end = limit > r ? (limit - r + s - 1) / s : 0;
  const index_t lo = std::clamp<index_t>(-u0, 0, len);
  const index_t hi = std::clamp<index_t>(u_end - u0, lo, len);
  std::fill(out, out + lo, 0.0F);
  if (s == 1) {
    std::copy(row + (u0 + lo), row + (u0 + hi), out + lo);
  } else {
    for (index_t j = lo; j < hi; ++j) {
      out[j] = row[(u0 + j) * s + r];
    }
  }
  std::fill(out + hi, out + len, 0.0F);
}

/// A tap reads x[t*s - back] = phase_r[t - q] with q = ceil(back / s),
/// r = q*s - back: its offset into stride-phase rows of `phase_len`
/// floats whose index 0 is u = -q_max.
inline index_t tap_offset(index_t back, index_t s, index_t q_max,
                          index_t phase_len) {
  const index_t q = (back + s - 1) / s;
  return (q * s - back) * phase_len + q_max - q;
}

/// Per-thread staging buffer `slot` of at least `floats` floats, kept
/// across calls so the training kernels do no allocator work per call.
/// Every kernel writes all of the staging it later reads.
float* scratch(int slot, index_t floats) {
  thread_local std::vector<float> buffers[2];
  std::vector<float>& b = buffers[slot];
  if (b.size() < static_cast<std::size_t>(floats)) {
    b.resize(static_cast<std::size_t>(floats));
  }
  return b.data();
}

/// The taps a call must visit: those with a non-zero weight for some
/// channel pair. PIT masks zero a pruned tap across every pair, so the
/// search's pruned taps drop out of forward and backward-input here.
std::vector<index_t> live_taps(const float* w, const ConvDims& d) {
  std::vector<index_t> taps;
  for (index_t i = 0; i < d.k; ++i) {
    for (index_t p = 0; p < d.c_out * d.c_in; ++p) {
      if (w[p * d.k + i] != 0.0F) {
        taps.push_back(i);
        break;
      }
    }
  }
  return taps;
}

/// A row reduction over the live taps: tap j is weight index idx[j],
/// read at input offset off[j].
struct TapList {
  const index_t* idx;
  const index_t* off;
  index_t count;
};

/// acc[c][v] += w[c] * xp[v * kVf ..] over a TV-vector row tile, w[c] =
/// wr[c][i]. A single-vector tile (TV == 1) accumulates into set `Set`
/// instead, so a caller alternating taps between the two sets keeps as
/// many independent FMA chains in flight as a two-vector tile does.
template <int TV, int Set>
inline void fma_tap(vf (&acc)[kCoTile][2], const float* const (&wr)[kCoTile],
                    index_t i, const float* xp) {
  for (int v = 0; v < TV; ++v) {
    const vf xv = load16(xp + v * kVf);
    for (index_t c = 0; c < kCoTile; ++c) {
      acc[c][TV == 1 ? Set : v] += splat(wr[c][i]) * xv;
    }
  }
}

/// Reduces one input row over `taps` into the tile; weight rows past the
/// block's `n` alias its last row (their sums are never stored).
template <int TV>
inline void reduce_row(vf (&acc)[kCoTile][2], const float* wc,
                       index_t row_stride, index_t n, const TapList& taps,
                       const float* xp) {
  const float* wr[kCoTile];
  for (index_t c = 0; c < kCoTile; ++c) {
    wr[c] = wc + std::min(c, n - 1) * row_stride;
  }
  index_t j = 0;
  for (; j + 1 < taps.count; j += 2) {
    fma_tap<TV, 0>(acc, wr, taps.idx[j], xp + taps.off[j]);
    fma_tap<TV, 1>(acc, wr, taps.idx[j + 1], xp + taps.off[j + 1]);
  }
  if (j < taps.count) {
    fma_tap<TV, 0>(acc, wr, taps.idx[j], xp + taps.off[j]);
  }
}

/// Forward tile: y[n, co0 + c, t0 + t] for c < kCoTile, t < TV * kVf,
/// reduced over (ci, live tap) from the staged sample `xs`: channel ci is
/// d.stride phase rows of `row` floats, and tap j reads
/// xs[ci * d.stride * row + taps.off[j] + t].
template <int TV>
void forward_tile(const float* xs, const float* w, const float* bias,
                  float* yn, const ConvDims& d, const TapList& taps,
                  index_t row, index_t co0, index_t nco, index_t t0,
                  index_t nt) {
  vf acc[kCoTile][2];
  for (index_t c = 0; c < kCoTile; ++c) {
    const float b = (bias != nullptr && c < nco) ? bias[co0 + c] : 0.0F;
    acc[c][0] = splat(b);
    acc[c][1] = splat(TV == 2 ? b : 0.0F);
  }
  for (index_t ci = 0; ci < d.c_in; ++ci) {
    reduce_row<TV>(acc, w + (co0 * d.c_in + ci) * d.k, d.c_in * d.k, nco,
                   taps, xs + ci * d.stride * row + t0);
  }
  for (index_t c = 0; c < nco; ++c) {
    add_tile<TV>(yn + (co0 + c) * d.t_out + t0, acc[c], nt);
  }
}

/// Stride-1 backward-input tile: dx[n, ci0 + c, s0 + t] gathers
/// w[co, ci, i] * dy[n, co, s0 + t + i*dil] over (co, live tap) from the
/// staged sample `dys` (one zero-padded row of `row` floats per co).
template <int TV>
void backward_input_tile(const float* dys, const float* w, float* dxn,
                         const ConvDims& d, const TapList& taps, index_t row,
                         index_t ci0, index_t nci, index_t s0, index_t ns) {
  vf acc[kCoTile][2] = {};
  for (index_t co = 0; co < d.c_out; ++co) {
    reduce_row<TV>(acc, w + (co * d.c_in + ci0) * d.k, d.k, nci, taps,
                   dys + co * row + s0);
  }
  for (index_t c = 0; c < nci; ++c) {
    add_tile<TV>(dxn + (ci0 + c) * d.t_in + s0, acc[c], ns);
  }
}

/// acc[c][j] += dv[c] * x[off[j] ..] for one 16-step chunk.
template <int NT>
inline void fma_chunk(vf (&acc)[kCoTile][NT], const vf (&dv)[kCoTile],
                      const float* xp, const index_t (&off)[NT]) {
  for (int j = 0; j < NT; ++j) {
    const vf xv = load16(xp + off[j]);
    for (index_t c = 0; c < kCoTile; ++c) {
      acc[c][j] += dv[c] * xv;
    }
  }
}

/// Backward-weight block: dw[co0 + c, ci, i0 + j] for c < kCoTile,
/// j < NT, reduced over every (n, t) in vector lanes and summed
/// horizontally once. `xs` holds input channel ci of every sample as
/// stride-phase rows (d.stride rows of `phase_len` floats per sample,
/// index 0 at u = -q_max, zero outside the data). When t_out is not a
/// multiple of kVf, `tails` holds each (n, c) dy row's last partial chunk
/// zero-padded to kVf floats; zero dy lanes make the x lanes there inert.
template <int NT>
void backward_weight_block(const float* dy, const float* xs,
                           const float* tails, float* dw, const ConvDims& d,
                           index_t co0, index_t nco, index_t ci, index_t i0,
                           index_t q_max, index_t phase_len) {
  index_t off[NT];
  for (int j = 0; j < NT; ++j) {
    off[j] = tap_offset((i0 + j) * d.dilation, d.stride, q_max, phase_len);
  }
  const index_t t_full = d.t_out / kVf * kVf;
  vf acc[kCoTile][NT] = {};
  for (index_t n = 0; n < d.n; ++n) {
    const float* xsn = xs + n * d.stride * phase_len;
    const float* dyr[kCoTile];
    for (index_t c = 0; c < kCoTile; ++c) {
      // Rows past c_out alias a valid one; their sums are discarded.
      dyr[c] = dy + (n * d.c_out + co0 + std::min(c, nco - 1)) * d.t_out;
    }
    vf dv[kCoTile];
    for (index_t t = 0; t < t_full; t += kVf) {
      for (index_t c = 0; c < kCoTile; ++c) {
        dv[c] = load16(dyr[c] + t);
      }
      fma_chunk<NT>(acc, dv, xsn + t, off);
    }
    if (t_full < d.t_out) {
      for (index_t c = 0; c < kCoTile; ++c) {
        dv[c] = load16(tails + (n * kCoTile + c) * kVf);
      }
      fma_chunk<NT>(acc, dv, xsn + t_full, off);
    }
  }
  for (index_t c = 0; c < nco; ++c) {
    float* dwp = dw + ((co0 + c) * d.c_in + ci) * d.k + i0;
    for (int j = 0; j < NT; ++j) {
      dwp[j] += hsum(acc[c][j]);
    }
  }
}

}  // namespace

void conv_forward(const float* x, const float* w, const float* bias, float* y,
                  const ConvDims& d) {
  const index_t co_blocks = (d.c_out + kCoTile - 1) / kCoTile;
  const index_t s = d.stride;
  const index_t q_max = ((d.k - 1) * d.dilation + s - 1) / s;
  const index_t row = q_max + round_up(d.t_out, kInferTTile);
  const std::vector<index_t> idx = live_taps(w, d);
  std::vector<index_t> off;
  for (const index_t i : idx) {
    off.push_back(tap_offset(i * d.dilation, s, q_max, row));
  }
  const TapList taps{idx.data(), off.data(), static_cast<index_t>(idx.size())};
#pragma omp parallel
  {
    // One staged sample per thread; a thread's cells are consecutive in
    // (n, cb), so each sample is staged about once per thread.
    float* xs = scratch(0, d.c_in * s * row);
    index_t staged = -1;
#pragma omp for collapse(2) schedule(static)
    for (index_t n = 0; n < d.n; ++n) {
      for (index_t cb = 0; cb < co_blocks; ++cb) {
        if (n != staged) {
          for (index_t ci = 0; ci < d.c_in; ++ci) {
            for (index_t r = 0; r < s; ++r) {
              stage_phase(x + (n * d.c_in + ci) * d.t_in, -q_max, row, s, r,
                          d.t_in, xs + (ci * s + r) * row);
            }
          }
          staged = n;
        }
        const index_t co0 = cb * kCoTile;
        const index_t nco = std::min(kCoTile, d.c_out - co0);
        float* yn = y + n * d.c_out * d.t_out;
        for (index_t t0 = 0; t0 < d.t_out; t0 += kInferTTile) {
          const index_t nt = std::min(kInferTTile, d.t_out - t0);
          if (nt > kVf) {
            forward_tile<2>(xs, w, bias, yn, d, taps, row, co0, nco, t0, nt);
          } else {
            forward_tile<1>(xs, w, bias, yn, d, taps, row, co0, nco, t0, nt);
          }
        }
      }
    }
  }
}

void conv_backward_input(const float* dy, const float* w, float* dx,
                         const ConvDims& d) {
  const index_t ci_blocks = (d.c_in + kCoTile - 1) / kCoTile;
  const index_t row =
      round_up(d.t_in, kInferTTile) + (d.k - 1) * d.dilation;
  const std::vector<index_t> idx = live_taps(w, d);
  std::vector<index_t> off;
  for (const index_t i : idx) {
    off.push_back(i * d.dilation);
  }
  const TapList taps{idx.data(), off.data(), static_cast<index_t>(idx.size())};
#pragma omp parallel
  {
    float* dys = scratch(0, d.stride == 1 ? d.c_out * row : 0);
    index_t staged = -1;
#pragma omp for collapse(2) schedule(static)
    for (index_t n = 0; n < d.n; ++n) {
      for (index_t cb = 0; cb < ci_blocks; ++cb) {
        const index_t ci0 = cb * kCoTile;
        const index_t nci = std::min(kCoTile, d.c_in - ci0);
        const float* dyn = dy + n * d.c_out * d.t_out;
        float* dxn = dx + n * d.c_in * d.t_in;
        if (d.stride == 1) {
          if (n != staged) {
            for (index_t co = 0; co < d.c_out; ++co) {
              stage_phase(dyn + co * d.t_out, 0, row, 1, 0, d.t_out,
                          dys + co * row);
            }
            staged = n;
          }
          for (index_t s0 = 0; s0 < d.t_in; s0 += kInferTTile) {
            const index_t ns = std::min(kInferTTile, d.t_in - s0);
            if (ns > kVf) {
              backward_input_tile<2>(dys, w, dxn, d, taps, row, ci0, nci, s0,
                                     ns);
            } else {
              backward_input_tile<1>(dys, w, dxn, d, taps, row, ci0, nci, s0,
                                     ns);
            }
          }
          continue;
        }
        // Strided scatter: keep the scalar loop shape, restricted to the
        // ci rows this thread owns (no cross-thread aliasing).
        for (index_t c = 0; c < nci; ++c) {
          const index_t ci = ci0 + c;
          float* dxrow = dxn + ci * d.t_in;
          for (index_t co = 0; co < d.c_out; ++co) {
            const float* dyrow = dyn + co * d.t_out;
            const float* wrow = w + (co * d.c_in + ci) * d.k;
            for (index_t i = 0; i < d.k; ++i) {
              const float wv = wrow[i];
              if (wv == 0.0F) {
                continue;
              }
              const index_t back = i * d.dilation;
              const index_t t0 = (back + d.stride - 1) / d.stride;
              for (index_t t = t0; t < d.t_out; ++t) {
                dxrow[t * d.stride - back] += wv * dyrow[t];
              }
            }
          }
        }
      }
    }
  }
}

void conv_backward_weight(const float* dy, const float* x, float* dw,
                          const ConvDims& d) {
  const index_t co_blocks = (d.c_out + kCoTile - 1) / kCoTile;
  const index_t q_max = ((d.k - 1) * d.dilation + d.stride - 1) / d.stride;
  const index_t phase_len = q_max + round_up(d.t_out, kVf);
  const index_t t_full = d.t_out / kVf * kVf;
  // Each cell owns one input channel: it stages that channel of every
  // sample once, then sweeps every (co block, tap block) over it.
#pragma omp parallel
  {
    float* xs = scratch(0, d.n * d.stride * phase_len);
    float* tails = scratch(1, t_full < d.t_out ? d.n * kCoTile * kVf : 0);
#pragma omp for schedule(static)
    for (index_t ci = 0; ci < d.c_in; ++ci) {
      for (index_t n = 0; n < d.n; ++n) {
        const float* xrow = x + (n * d.c_in + ci) * d.t_in;
        for (index_t r = 0; r < d.stride; ++r) {
          stage_phase(xrow, -q_max, phase_len, d.stride, r, d.t_in,
                      xs + (n * d.stride + r) * phase_len);
        }
      }
      for (index_t cb = 0; cb < co_blocks; ++cb) {
        const index_t co0 = cb * kCoTile;
        const index_t nco = std::min(kCoTile, d.c_out - co0);
        if (t_full < d.t_out) {
          for (index_t n = 0; n < d.n; ++n) {
            for (index_t c = 0; c < kCoTile; ++c) {
              const index_t co = co0 + std::min(c, nco - 1);
              stage_phase(dy + (n * d.c_out + co) * d.t_out, t_full, kVf, 1,
                          0, d.t_out, tails + (n * kCoTile + c) * kVf);
            }
          }
        }
        for (index_t i0 = 0; i0 < d.k; i0 += kTapTile) {
          switch (std::min<index_t>(kTapTile, d.k - i0)) {
#ifdef __AVX512F__
            case 4:
              backward_weight_block<4>(dy, xs, tails, dw, d, co0, nco, ci, i0,
                                       q_max, phase_len);
              break;
            case 3:
              backward_weight_block<3>(dy, xs, tails, dw, d, co0, nco, ci, i0,
                                       q_max, phase_len);
              break;
#endif
            case 2:
              backward_weight_block<2>(dy, xs, tails, dw, d, co0, nco, ci, i0,
                                       q_max, phase_len);
              break;
            default:
              backward_weight_block<1>(dy, xs, tails, dw, d, co0, nco, ci, i0,
                                       q_max, phase_len);
              break;
          }
        }
      }
    }
  }
}

// Tap-count template: KK == 0 is the generic kernel (d.k read at
// runtime); KK > 0 instantiates a variant whose tap loops have a
// compile-time trip count (registered with the kernel registry for
// signatures with k == KK), so the per-tap pointer stepping constant-folds
// and the reduction fully unrolls. The FMA order per (ci, tap) pair is
// identical for every KK — unrolling a loop does not reassociate it — so
// all instantiations agree to rounding on the same input.
template <int KK>
void conv_forward_packed_t(const float* x, const float* wp, const float* bias,
                           float* y, const ConvDims& d, index_t x_stride,
                           index_t y_stride, bool x_padded, bool relu) {
  const index_t kk = KK > 0 ? KK : d.k;
  const index_t co_round = (d.c_out + kPackCo - 1) / kPackCo * kPackCo;
  const index_t co_blocks = co_round / kPackCo;
  const index_t max_back = (kk - 1) * d.dilation;
#pragma omp parallel for collapse(2) schedule(static)
  for (index_t n = 0; n < d.n; ++n) {
    for (index_t cb = 0; cb < co_blocks; ++cb) {
      const index_t co0 = cb * kPackCo;
      const index_t nco = std::min(kPackCo, d.c_out - co0);
      const float* xn = x + n * d.c_in * x_stride;
      float* yn = y + n * d.c_out * y_stride;
      float b[kPackCo];
      for (index_t c = 0; c < kPackCo; ++c) {
        b[c] = (bias != nullptr && c < nco) ? bias[co0 + c] : 0.0F;
      }
      for (index_t t0 = 0; t0 < d.t_out; t0 += kInferTTile) {
        const index_t nt = std::min(kInferTTile, d.t_out - t0);
        // Padded rows make every tile register-resident: reads below
        // t = 0 land in the zeroed lead, tail over-reads land in the
        // slack, and the masked store drops the garbage lanes.
        if (x_padded || (t0 >= max_back && nt == kInferTTile)) {
          // The 4 x 32 output tile stays in 8 vector registers across the
          // whole c_in x k reduction; each tap costs two x loads, one
          // packed-weight group and 8 FMAs.
          vf a0l = splat(b[0]);
          vf a0h = a0l;
          vf a1l = splat(b[1]);
          vf a1h = a1l;
          vf a2l = splat(b[2]);
          vf a2h = a2l;
          vf a3l = splat(b[3]);
          vf a3h = a3l;
          const float* wg = wp + co0;
          for (index_t ci = 0; ci < d.c_in; ++ci) {
            const float* xrow = xn + ci * x_stride + t0;
            for (index_t i = 0; i < kk; ++i) {
              const float* xs = xrow - i * d.dilation;
              const vf xl = load16(xs);
              const vf xh = load16(xs + kVf);
              const vf w0 = splat(wg[0]);
              const vf w1 = splat(wg[1]);
              const vf w2 = splat(wg[2]);
              const vf w3 = splat(wg[3]);
              wg += co_round;
              a0l += w0 * xl;
              a0h += w0 * xh;
              a1l += w1 * xl;
              a1h += w1 * xh;
              a2l += w2 * xl;
              a2h += w2 * xh;
              a3l += w3 * xl;
              a3h += w3 * xh;
            }
          }
          float* yt = yn + co0 * y_stride + t0;
          store_tile_row(yt, a0l, a0h, nt, relu);
          if (nco > 1) {
            store_tile_row(yt + y_stride, a1l, a1h, nt, relu);
          }
          if (nco > 2) {
            store_tile_row(yt + 2 * y_stride, a2l, a2h, nt, relu);
          }
          if (nco > 3) {
            store_tile_row(yt + 3 * y_stride, a3l, a3h, nt, relu);
          }
        } else {
          // Dense rows near the implicit left padding or the ragged
          // tail: per-tap clamped spans over an L1 accumulator block.
          float acc[kPackCo][kInferTTile];
          for (index_t c = 0; c < kPackCo; ++c) {
            for (index_t tt = 0; tt < kInferTTile; ++tt) {
              acc[c][tt] = b[c];
            }
          }
          const float* wg = wp + co0;
          for (index_t ci = 0; ci < d.c_in; ++ci) {
            const float* xrow = xn + ci * x_stride;
            for (index_t i = 0; i < kk; ++i) {
              const float w0 = wg[0];
              const float w1 = wg[1];
              const float w2 = wg[2];
              const float w3 = wg[3];
              wg += co_round;
              const index_t back = i * d.dilation;
              const index_t lo = back > t0 ? back - t0 : 0;
              if (lo >= nt) {
                continue;  // tap reads only the zero padding here
              }
              const float* xs = xrow + t0 - back;
              for (index_t tt = lo; tt < nt; ++tt) {
                const float xv = xs[tt];
                acc[0][tt] += w0 * xv;
                acc[1][tt] += w1 * xv;
                acc[2][tt] += w2 * xv;
                acc[3][tt] += w3 * xv;
              }
            }
          }
          for (index_t c = 0; c < nco; ++c) {
            float* yrow = yn + (co0 + c) * y_stride + t0;
            if (relu) {
              for (index_t tt = 0; tt < nt; ++tt) {
                yrow[tt] = acc[c][tt] > 0.0F ? acc[c][tt] : 0.0F;
              }
            } else {
              for (index_t tt = 0; tt < nt; ++tt) {
                yrow[tt] = acc[c][tt];
              }
            }
          }
        }
      }
    }
  }
}

void conv_forward_packed(const float* x, const float* wp, const float* bias,
                         float* y, const ConvDims& d, index_t x_stride,
                         index_t y_stride, bool x_padded, bool relu) {
  conv_forward_packed_t<0>(x, wp, bias, y, d, x_stride, y_stride, x_padded,
                           relu);
}

#define PIT_DEFINE_PACKED_K(K)                                               \
  void conv_forward_packed_k##K(const float* x, const float* wp,             \
                                const float* bias, float* y,                 \
                                const ConvDims& d, index_t x_stride,         \
                                index_t y_stride, bool x_padded,             \
                                bool relu) {                                 \
    conv_forward_packed_t<K>(x, wp, bias, y, d, x_stride, y_stride,          \
                             x_padded, relu);                                \
  }
PIT_FOREACH_SPEC_K(PIT_DEFINE_PACKED_K)
#undef PIT_DEFINE_PACKED_K

// Streaming single-step conv over a dilated fp32 ring (contract in
// registry.hpp). The body is the loop CompiledPlan::step historically ran
// inline, moved here verbatim so it multi-versions per ISA and the tap
// loop can specialize: accumulation order over (ci, tap) and the
// zero-input skip are preserved exactly.
template <int KK>
void conv_step_t(const float* ring, const float* wp, const float* bias,
                 float* y, index_t c_in, index_t c_out, index_t k,
                 index_t dilation, index_t span, index_t pos, bool relu) {
  const index_t kk = KK > 0 ? KK : k;
  if (bias != nullptr) {
    std::copy(bias, bias + c_out, y);
  } else {
    std::fill(y, y + c_out, 0.0F);
  }
  // Packed weight layout: wp[(ci*k + tap) * co_round + co] — contiguous
  // over output channels, which is the inner loop here too.
  const index_t co_round = (c_out + kPackCo - 1) / kPackCo * kPackCo;
  for (index_t ci = 0; ci < c_in; ++ci) {
    const float* crow = ring + ci * span;
    for (index_t tap = 0; tap < kk; ++tap) {
      const index_t back = tap * dilation;  // < span by construction
      const index_t slot = pos >= back ? pos - back : pos - back + span;
      const float xv = crow[slot];
      if (xv == 0.0F) {
        continue;  // padding region and post-ReLU zeros are common
      }
      const float* wrow = wp + (ci * kk + tap) * co_round;
      for (index_t co = 0; co < c_out; ++co) {
        y[co] += wrow[co] * xv;
      }
    }
  }
  if (relu) {
    for (index_t co = 0; co < c_out; ++co) {
      y[co] = y[co] > 0.0F ? y[co] : 0.0F;
    }
  }
}

void conv_step(const float* ring, const float* wp, const float* bias,
               float* y, index_t c_in, index_t c_out, index_t k,
               index_t dilation, index_t span, index_t pos, bool relu) {
  conv_step_t<0>(ring, wp, bias, y, c_in, c_out, k, dilation, span, pos,
                 relu);
}

#define PIT_DEFINE_STEP_K(K)                                                 \
  void conv_step_k##K(const float* ring, const float* wp, const float* bias, \
                      float* y, index_t c_in, index_t c_out, index_t k,      \
                      index_t dilation, index_t span, index_t pos,           \
                      bool relu) {                                           \
    conv_step_t<K>(ring, wp, bias, y, c_in, c_out, k, dilation, span, pos,   \
                   relu);                                                    \
  }
PIT_FOREACH_SPEC_K(PIT_DEFINE_STEP_K)
#undef PIT_DEFINE_STEP_K

void linear_forward(const float* x, const float* w, const float* bias,
                    float* y, index_t n, index_t f, index_t o, bool relu) {
#pragma omp parallel for schedule(static)
  for (index_t i = 0; i < n; ++i) {
    const float* xrow = x + i * f;
    float* yrow = y + i * o;
    for (index_t j = 0; j < o; ++j) {
      const float* wrow = w + j * f;
      // Four independent vector chains hide the FMA latency of the dot
      // product; the ragged tail stays scalar.
      vf acc0 = {};
      vf acc1 = {};
      vf acc2 = {};
      vf acc3 = {};
      index_t p = 0;
      for (; p + 4 * kVf <= f; p += 4 * kVf) {
        acc0 += load16(xrow + p) * load16(wrow + p);
        acc1 += load16(xrow + p + kVf) * load16(wrow + p + kVf);
        acc2 += load16(xrow + p + 2 * kVf) * load16(wrow + p + 2 * kVf);
        acc3 += load16(xrow + p + 3 * kVf) * load16(wrow + p + 3 * kVf);
      }
      for (; p + kVf <= f; p += kVf) {
        acc0 += load16(xrow + p) * load16(wrow + p);
      }
      float sum = bias != nullptr ? bias[j] : 0.0F;
      float lanes[kVf];
      store16(lanes, acc0 + acc1 + acc2 + acc3);
      for (index_t l = 0; l < kVf; ++l) {
        sum += lanes[l];
      }
      for (; p < f; ++p) {
        sum += xrow[p] * wrow[p];
      }
      yrow[j] = relu && sum < 0.0F ? 0.0F : sum;
    }
  }
}

}  // namespace PIT_BLOCKED_ISA_NS
}  // namespace pit::nn::kernels::blocked
