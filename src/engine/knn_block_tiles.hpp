// SIMD-friendly tile primitives for the blocked k-NN scan.
//
// These are the inner loops of BlockedKnnIndex::top_k_block, hoisted
// into their own translation unit so they can be compiled with the
// vectorizer fully enabled (and AVX2 function clones resolved at load
// time) without touching the code generation of engine::reference_top_k,
// the kernel's scalar ground truth.
//
// Numerical contract: every helper performs exactly the element-wise
// IEEE operations of the scalar reference loops — subtract, multiply,
// add (or abs/add), in ascending point order per feature — and the
// clones are generated without FMA, so results are bit-identical to the
// scalar path on every CPU the resolver can pick.
#pragma once

#include <cstddef>

namespace appclass::engine::blocktiles {

/// acc[i] = (col[i] - q)^2 for i in [0, width) — first-feature store.
void sq_first(const double* col, double q, double* acc, std::size_t width);
/// acc[i] = (c0[i] - q0)^2 + (c1[i] - q1)^2 — the two-feature query in
/// one pass over the tile (half the acc traffic of store + accumulate).
/// Same mul, mul, add rounding sequence as the two-sweep form, so the
/// fusion is bit-transparent. Two features is the common case: the
/// paper keeps two principal components.
void sq_pair(const double* c0, const double* c1, double q0, double q1,
             double* acc, std::size_t width);
/// acc[i] += (col[i] - q)^2 for i in [0, width).
void sq_accumulate(const double* col, double q, double* acc,
                   std::size_t width);
/// acc[i] = |col[i] - q| for i in [0, width) — first-feature store.
void l1_first(const double* col, double q, double* acc, std::size_t width);
/// acc[i] = |c0[i] - q0| + |c1[i] - q1| — fused two-feature Manhattan
/// pass; same abs, abs, add sequence as the two-sweep form.
void l1_pair(const double* c0, const double* c1, double q0, double q1,
             double* acc, std::size_t width);
/// acc[i] += |col[i] - q| for i in [0, width).
void l1_accumulate(const double* col, double q, double* acc,
                   std::size_t width);

/// Candidates per chunk_mins() block — the granularity at which the
/// batched selection loop can skip distances wholesale.
inline constexpr std::size_t kMinChunk = 8;

/// mins[j] = min(acc[8j .. 8j+8)) for every complete 8-wide chunk
/// (floor(width / 8) of them); a trailing partial chunk is the caller's
/// to scan. Pure min-reduction — no arithmetic, so no rounding concerns.
void chunk_mins(const double* acc, std::size_t width, double* mins);

}  // namespace appclass::engine::blocktiles
