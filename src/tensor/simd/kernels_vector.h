// The vector implementation of the SIMD primitive set, written once for
// every lane width. Vector<L> spells each primitive in terms of a lane-ops
// type L (kernels_avx2.h: 4 doubles per ymm; kernels_avx512.h: 8 per zmm):
//
//   D, kLanes       the vector type and its width in doubles;
//   kMaxTile        GemmRow's widest register tile, in vectors;
//   Load/Store      unaligned full vectors;
//   LoadFirst/StoreFirst(r)
//                   the first r < kLanes lanes only: the other lanes read
//                   as 0 and are never written;
//   Set1, Add/Sub/Mul/Div
//                   broadcast and the lane-wise IEEE operations;
//   GtSel(a, b)     a > b ? a : b  (false for a NaN operand: returns b);
//   LtSel(a, b)     a < b ? a : b  (likewise);
//   Neg, Abs        flip / clear the sign bit;
//   OrSign(y, x)    y with x's sign bit OR-ed in;
//   Pow2(kd, bias)  the bit pattern (kd's low bits + bias) << 52.
//
// Bit-identical to simd::Scalar by construction: each primitive is the
// scalar reference's expression with every operation in its order, mul and
// add kept separate (never FMA, as -ffp-contract=off keeps the scalar code),
// and the comparison-selects reproduce the scalar ones' NaN and ±0
// behaviour. Elementwise primitives run through Map, whose last n % kLanes
// elements are one partial vector, so there is no scalar tail to keep in
// step with the reference.
#ifndef DLNER_TENSOR_SIMD_KERNELS_VECTOR_H_
#define DLNER_TENSOR_SIMD_KERNELS_VECTOR_H_

#include <cstddef>
#include <iterator>
#include <utility>

#include "tensor/simd/kernels_scalar.h"

namespace dlner::simd {

template <class L>
struct Vector {
  using D = typename L::D;

  // Contract: Scalar::GemmRow. Register-tiled over columns: each tile of c
  // is loaded once, carried through the whole p loop in accumulators and
  // stored once, so the only per-step memory traffic is the tile's slice of
  // one b row.
  static void GemmRow(const double* a, const double* b, double* c, int k,
                      int n) {
    RowFrom(a, b, c, k, n, 0);
  }

  static void Relu(double* x, int n) {
    Map(x, n, [](D v) { return L::GtSel(L::Set1(0.0), v); }, x);
  }

  static void Mul(const double* a, const double* b, double* out, int n) {
    Map(out, n, [](D va, D vb) { return L::Mul(va, vb); }, a, b);
  }

  static void MulMulAdd(const double* a, const double* b, const double* c,
                        const double* d, double* out, int n) {
    Map(out, n,
        [](D va, D vb, D vc, D vd) {
          return L::Add(L::Mul(va, vb), L::Mul(vc, vd));
        },
        a, b, c, d);
  }

  static void Blend(const double* z, const double* a, const double* b,
                    double* out, int n) {
    Map(out, n,
        [](D vz, D va, D vb) {
          return L::Add(L::Mul(L::Sub(L::Set1(1.0), vz), va), L::Mul(vz, vb));
        },
        z, a, b);
  }

  static void NormApply(const double* x, double mu, double inv_sigma,
                        const double* g, const double* b, double* out,
                        int n) {
    const D vmu = L::Set1(mu);
    const D vinv = L::Set1(inv_sigma);
    Map(out, n,
        [vmu, vinv](D vx, D vg, D vb) {
          return L::Add(L::Mul(vg, L::Mul(L::Sub(vx, vmu), vinv)), vb);
        },
        x, g, b);
  }

  static void RowMax(const double* x, double* best, int n) {
    Map(best, n, [](D vx, D vbest) { return L::GtSel(vx, vbest); }, x, best);
  }

  // Contract: Scalar::Sigmoid and Scalar::Tanh, step for step.
  static void Sigmoid(double* x, int n) {
    Map(x, n, [](D v) { return SigmoidV(v); }, x);
  }

  static void Tanh(double* x, int n) {
    Map(x, n, [](D v) { return TanhV(v); }, x);
  }

 protected:
  // Columns [j, n) of one GemmRow (b's rows stay n floats apart): tiles of
  // V = kMaxTile vectors, then at most one tile of each smaller power of
  // two, then a scalar loop over the last n % kLanes columns.
  template <int V = L::kMaxTile>
  static void RowFrom(const double* a, const double* b, double* c, int k,
                      int n, int j) {
    for (; j + V * L::kLanes <= n; j += V * L::kLanes) {
      RowTile<V>(a, b + j, c + j, k, n);
    }
    if constexpr (V > 1) {
      RowFrom<V / 2>(a, b, c, k, n, j);
    } else {
      if (j == n) return;
      for (int p = 0; p < k; ++p) {
        const double av = a[p];
        if (av == 0.0) continue;
        const double* brow = b + static_cast<std::size_t>(p) * n;
        for (int jj = j; jj < n; ++jj) c[jj] += av * brow[jj];
      }
    }
  }

 private:
  // out[0, n) = f(in[0, n)...) a vector at a time. An input may be `out`
  // itself: every vector is loaded before its store.
  template <class F, class... In>
  static void Map(double* out, int n, F f, const In*... in) {
    int j = 0;
    for (; j + L::kLanes <= n; j += L::kLanes) {
      L::Store(out + j, f(L::Load(in + j)...));
    }
    if (j == n) return;
    L::StoreFirst(out + j, n - j, f(L::LoadFirst(in + j, n - j)...));
  }

  static D SigmoidV(D x) {
    using namespace exp_seq;
    D t = L::GtSel(L::Set1(kSigmoidMin), L::Neg(x));
    t = L::LtSel(L::Set1(kSigmoidMax), t);
    D kd;
    const D p = ExpReduce(t, &kd);
    const D s = L::Pow2(kd, kBiasHalf);
    const D e = L::Mul(L::Add(s, L::Mul(s, p)), L::Set1(2.0));
    const D one = L::Set1(1.0);
    return L::Div(one, L::Add(one, e));
  }

  static D TanhV(D x) {
    using namespace exp_seq;
    const D a = L::LtSel(L::Set1(kTanhMax), L::Abs(x));
    D kd;
    const D p = ExpReduce(L::Add(a, a), &kd);
    const D s = L::Pow2(kd, kBias);
    const D e = L::Add(L::Sub(s, L::Set1(1.0)), L::Mul(s, p));
    return L::OrSign(L::Div(e, L::Add(e, L::Set1(2.0))), x);
  }

  // Scalar::ExpReduce, a vector at a time; *kd holds the shifted sum whose
  // low bits are k.
  static D ExpReduce(D t, D* kd) {
    using namespace exp_seq;
    *kd = L::Add(L::Mul(t, L::Set1(kLog2e)), L::Set1(kShift));
    const D kf = L::Sub(*kd, L::Set1(kShift));
    const D hi = L::Mul(kf, L::Set1(kLn2Hi));
    const D lo = L::Mul(kf, L::Set1(kLn2Lo));
    const D r = L::Sub(L::Sub(t, hi), lo);
    return L::Mul(Horner(r, std::make_index_sequence<std::size(kPoly) - 1>()),
                  r);
  }

  // q = kPoly[0], then q = q * r + kPoly[i + 1] for each i in order. A fold
  // rather than a loop, which GCC 12 would not unroll: inside a class
  // template it ignores (and warns about) `#pragma GCC unroll`.
  template <std::size_t... I>
  static D Horner(D r, std::index_sequence<I...>) {
    using exp_seq::kPoly;
    D q = L::Set1(kPoly[0]);
    ((q = L::Add(L::Mul(q, r), L::Set1(kPoly[I + 1]))), ...);
    return q;
  }

  // c[0, V * kLanes) of one row, V accumulators live across the p loop
  // (`b` and `c` already point at the tile's first column).
  template <int V>
  static void RowTile(const double* a, const double* b, double* c, int k,
                      int n) {
    D acc[V];
#pragma GCC unroll 16
    for (int v = 0; v < V; ++v) acc[v] = L::Load(c + L::kLanes * v);
    for (int p = 0; p < k; ++p) {
      const double av = a[p];
      if (av == 0.0) continue;
      const D va = L::Set1(av);
      const double* brow = b + static_cast<std::size_t>(p) * n;
#pragma GCC unroll 16
      for (int v = 0; v < V; ++v) {
        acc[v] = L::Add(acc[v], L::Mul(va, L::Load(brow + L::kLanes * v)));
      }
    }
#pragma GCC unroll 16
    for (int v = 0; v < V; ++v) L::Store(c + L::kLanes * v, acc[v]);
  }
};

}  // namespace dlner::simd

#endif  // DLNER_TENSOR_SIMD_KERNELS_VECTOR_H_
