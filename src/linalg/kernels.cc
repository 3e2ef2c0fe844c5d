#include "linalg/kernels.h"

// x86-64 gets an AVX2 clone (no FMA, see kernels.h) of every kernel, picked
// once at load time; the default clone is the portable baseline. Both
// clones run the same source, so they produce the same bits.
//
// ThreadSanitizer builds take the baseline only: the clones' ifunc
// resolvers run before the TSan runtime is up and crash the binary before
// main.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MILR_TSAN_BUILD 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define MILR_TSAN_BUILD 1
#endif

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(MILR_TSAN_BUILD)
#define MILR_AVX2_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define MILR_AVX2_CLONES
#endif

#define MILR_ALWAYS_INLINE __attribute__((always_inline)) inline

namespace milr::linalg_detail {
namespace {

typedef double Vec4 __attribute__((vector_size(32)));

/// Register tile of the ordered GEMM: R rows × V four-wide vectors, every
/// accumulator live in a register for the whole p sweep.
template <std::size_t R, std::size_t V>
MILR_ALWAYS_INLINE void TileVec(const double* a, std::size_t rs,
                                std::size_t cs, const double* b,
                                std::size_t ldb, double* c, std::size_t ldc,
                                std::size_t kd) {
  Vec4 acc[R][V];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < V; ++v) acc[r][v] = Vec4{0.0, 0.0, 0.0, 0.0};
  }
  for (std::size_t p = 0; p < kd; ++p) {
    const double* brow = b + p * ldb;
    Vec4 bv[V];
    for (std::size_t v = 0; v < V; ++v) {
      __builtin_memcpy(&bv[v], brow + 4 * v, sizeof(Vec4));
    }
    for (std::size_t r = 0; r < R; ++r) {
      const double s = a[r * rs + p * cs];
      const Vec4 sv = {s, s, s, s};
      for (std::size_t v = 0; v < V; ++v) acc[r][v] += sv * bv[v];
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t v = 0; v < V; ++v) {
      __builtin_memcpy(c + r * ldc + 4 * v, &acc[r][v], sizeof(Vec4));
    }
  }
}

/// One output column of R rows (panel widths that are not a multiple of
/// four): R independent scalar chains.
template <std::size_t R>
MILR_ALWAYS_INLINE void TileColumn(const double* a, std::size_t rs,
                                   std::size_t cs, const double* b,
                                   std::size_t ldb, double* c,
                                   std::size_t ldc, std::size_t kd) {
  double acc[R] = {};
  for (std::size_t p = 0; p < kd; ++p) {
    const double bv = b[p * ldb];
    for (std::size_t r = 0; r < R; ++r) acc[r] += a[r * rs + p * cs] * bv;
  }
  for (std::size_t r = 0; r < R; ++r) c[r * ldc] = acc[r];
}

/// R rows × one packed panel of width w ≤ 8.
template <std::size_t R>
MILR_ALWAYS_INLINE void Tile(std::size_t w, const double* a, std::size_t rs,
                             std::size_t cs, const double* panel, double* c,
                             std::size_t ldc, std::size_t kd) {
  if (w == 8) {
    TileVec<R, 2>(a, rs, cs, panel, 8, c, ldc, kd);
    return;
  }
  std::size_t j = 0;
  if (w >= 4) {
    TileVec<R, 1>(a, rs, cs, panel, w, c, ldc, kd);
    j = 4;
  }
  for (; j < w; ++j) TileColumn<R>(a, rs, cs, panel + j, w, c + j, ldc, kd);
}

/// R rows × V four-wide vectors of the LU trailing block, held in
/// registers across every elimination step of the panel. kSkipZeros keeps
/// the zero-multiplier skip; without it the step loop has no branches.
template <std::size_t R, std::size_t V, bool kSkipZeros>
MILR_ALWAYS_INLINE void LuTileSteps(double* lu, std::size_t n,
                                    std::size_t s_begin, std::size_t s_end,
                                    std::size_t r, std::size_t c) {
  Vec4 acc[R][V];
  for (std::size_t i = 0; i < R; ++i) {
    for (std::size_t v = 0; v < V; ++v) {
      __builtin_memcpy(&acc[i][v], lu + (r + i) * n + c + 4 * v, sizeof(Vec4));
    }
  }
  for (std::size_t s = s_begin; s < s_end; ++s) {
    const double* urow = lu + s * n + c;
    Vec4 u[V];
    for (std::size_t v = 0; v < V; ++v) {
      __builtin_memcpy(&u[v], urow + 4 * v, sizeof(Vec4));
    }
    for (std::size_t i = 0; i < R; ++i) {
      const double l = lu[(r + i) * n + s];
      if (kSkipZeros && l == 0.0) continue;
      const Vec4 lv = {l, l, l, l};
      for (std::size_t v = 0; v < V; ++v) acc[i][v] -= lv * u[v];
    }
  }
  for (std::size_t i = 0; i < R; ++i) {
    for (std::size_t v = 0; v < V; ++v) {
      __builtin_memcpy(lu + (r + i) * n + c + 4 * v, &acc[i][v], sizeof(Vec4));
    }
  }
}

template <std::size_t R>
MILR_ALWAYS_INLINE void LuTileColumn(double* lu, std::size_t n,
                                     std::size_t s_begin, std::size_t s_end,
                                     std::size_t r, std::size_t c) {
  double acc[R];
  for (std::size_t i = 0; i < R; ++i) acc[i] = lu[(r + i) * n + c];
  for (std::size_t s = s_begin; s < s_end; ++s) {
    const double u = lu[s * n + c];
    for (std::size_t i = 0; i < R; ++i) {
      const double l = lu[(r + i) * n + s];
      if (l != 0.0) acc[i] -= l * u;
    }
  }
  for (std::size_t i = 0; i < R; ++i) lu[(r + i) * n + c] = acc[i];
}

template <std::size_t R, bool kSkipZeros>
MILR_ALWAYS_INLINE void LuRowTileColumns(double* lu, std::size_t n,
                                         std::size_t s_begin,
                                         std::size_t s_end, std::size_t r,
                                         std::size_t c_begin) {
  std::size_t c = c_begin;
  for (; c + 8 <= n; c += 8) {
    LuTileSteps<R, 2, kSkipZeros>(lu, n, s_begin, s_end, r, c);
  }
  for (; c + 4 <= n; c += 4) {
    LuTileSteps<R, 1, kSkipZeros>(lu, n, s_begin, s_end, r, c);
  }
  for (; c < n; ++c) LuTileColumn<R>(lu, n, s_begin, s_end, r, c);
}

/// Rows [r, r + R) × columns [c_begin, n) of LuApplySteps. Rows whose
/// multipliers are all non-zero (the common case) take the branch-free
/// step loop; the skip only matters when one is zero.
template <std::size_t R>
MILR_ALWAYS_INLINE void LuRowTile(double* lu, std::size_t n,
                                  std::size_t s_begin, std::size_t s_end,
                                  std::size_t r, std::size_t c_begin) {
  bool zero_multiplier = false;
  for (std::size_t i = 0; i < R; ++i) {
    for (std::size_t s = s_begin; s < s_end; ++s) {
      zero_multiplier |= lu[(r + i) * n + s] == 0.0;
    }
  }
  if (zero_multiplier) {
    LuRowTileColumns<R, true>(lu, n, s_begin, s_end, r, c_begin);
  } else {
    LuRowTileColumns<R, false>(lu, n, s_begin, s_end, r, c_begin);
  }
}

template <std::size_t C>
MILR_ALWAYS_INLINE void Reflect(const double* __restrict v, double tau,
                                std::size_t k, std::size_t m,
                                double* const* cols) {
  // C independent dot chains share each load of v.
  double dot[C];
  for (std::size_t i = 0; i < C; ++i) dot[i] = cols[i][k];
  for (std::size_t r = k + 1; r < m; ++r) {
    const double vr = v[r];
    for (std::size_t i = 0; i < C; ++i) dot[i] += vr * cols[i][r];
  }
  for (std::size_t i = 0; i < C; ++i) {
    double* __restrict col = cols[i];
    const double scale = tau * dot[i];
    col[k] -= scale;
    for (std::size_t r = k + 1; r < m; ++r) col[r] -= scale * v[r];
  }
}

}  // namespace

void PackPanels(const double* b, std::size_t rs, std::size_t cs,
                std::size_t kd, std::size_t n, double* out) {
  for (std::size_t j0 = 0; j0 < n; j0 += 8) {
    const std::size_t w = n - j0 < 8 ? n - j0 : 8;
    double* panel = out + j0 * kd;
    for (std::size_t p = 0; p < kd; ++p) {
      for (std::size_t j = 0; j < w; ++j) {
        panel[p * w + j] = b[p * rs + (j0 + j) * cs];
      }
    }
  }
}

MILR_AVX2_CLONES void GemmOrdered(const double* a, std::size_t rs,
                                  std::size_t cs, const double* b_packed,
                                  double* c, std::size_t ldc, std::size_t m,
                                  std::size_t n, std::size_t kd) {
  // Panel outer: one packed panel (kd × 8, contiguous) stays cache-resident
  // while every row tile streams through it.
  for (std::size_t j0 = 0; j0 < n; j0 += 8) {
    const std::size_t w = n - j0 < 8 ? n - j0 : 8;
    const double* panel = b_packed + j0 * kd;
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      Tile<4>(w, a + i * rs, rs, cs, panel, c + i * ldc + j0, ldc, kd);
    }
    for (; i < m; ++i) {
      Tile<1>(w, a + i * rs, rs, cs, panel, c + i * ldc + j0, ldc, kd);
    }
  }
}

MILR_AVX2_CLONES void LuApplySteps(double* lu, std::size_t n,
                                   std::size_t s_begin, std::size_t s_end,
                                   std::size_t r_begin, std::size_t r_end,
                                   std::size_t c_begin) {
  std::size_t r = r_begin;
  for (; r + 4 <= r_end; r += 4) {
    LuRowTile<4>(lu, n, s_begin, s_end, r, c_begin);
  }
  for (; r < r_end; ++r) LuRowTile<1>(lu, n, s_begin, s_end, r, c_begin);
}

MILR_AVX2_CLONES void ApplyReflector(const double* v, double tau,
                                     std::size_t k, std::size_t m,
                                     double* const* cols, std::size_t count) {
  switch (count) {
    case 1: Reflect<1>(v, tau, k, m, cols); break;
    case 2: Reflect<2>(v, tau, k, m, cols); break;
    case 3: Reflect<3>(v, tau, k, m, cols); break;
    default: Reflect<4>(v, tau, k, m, cols); break;
  }
}

}  // namespace milr::linalg_detail
