/**
 * @file
 * AVX-512 tier of the CF kernels: 8 double lanes, one work item per
 * lane, native merge-masking (_mm512_mask_add_pd) instead of AVX2's
 * zero-masked adds — an inactive lane's accumulator is left untouched
 * bit-for-bit.
 *
 * Compiled with -mavx512f -ffp-contract=off and WITHOUT
 * -mfma (see src/cf/CMakeLists.txt), matching the scalar reference's
 * unfused mul+add.
 */

#if defined(COOPER_SIMD_X86)

#include <algorithm>
#include <bit>
#include <immintrin.h>

#include "cf/item_knn.hh"
#include "cf/simd_kernels.hh"

namespace cooper {

namespace simd {

namespace {

constexpr std::size_t kLanes = 8;

inline std::size_t
triRowOffset(std::size_t a, std::size_t items)
{
    return a * (items - 1) - a * (a - 1) / 2;
}

/**
 * Row `r` of every lane's column: values_base[offv[l] + r]. A
 * full-mask gather over a zero source loads the same lanes as
 * _mm512_i64gather_pd, whose unspecified source GCC 12 reports as
 * maybe-uninitialized.
 */
inline __m512d
gatherRow(const double *values_base, __m512i offv, std::size_t r)
{
    return _mm512_mask_i64gather_pd(
        _mm512_setzero_pd(), 0xFF,
        _mm512_add_epi64(offv,
                         _mm512_set1_epi64(static_cast<long long>(r))),
        values_base, 8);
}

} // namespace

void
similarityBlockAvx512(const PackedColumns &packed, std::size_t a,
                      const std::size_t *bs, std::size_t count,
                      Similarity kind, std::size_t min_overlap,
                      double *out)
{
    const double *va = packed.column(a);
    const std::uint64_t *ma = packed.mask(a);
    const std::size_t words = packed.words();
    // Columns are slices of one contiguous buffer, so a lane's value
    // vb[l][r] sits at values_base[off[l] + r] and the per-row loads
    // below collapse into a single 8-lane gather.
    const double *values_base = packed.column(0);

    for (std::size_t k0 = 0; k0 < count; k0 += kLanes) {
        const std::size_t lanes = std::min(kLanes, count - k0);

        const double *vb[kLanes];
        const std::uint64_t *mb[kLanes];
        std::uint64_t keep[kLanes];
        long long off[kLanes];
        for (std::size_t l = 0; l < kLanes; ++l) {
            const std::size_t b = bs[k0 + (l < lanes ? l : 0)];
            vb[l] = packed.column(b);
            mb[l] = packed.mask(b);
            keep[l] = l < lanes ? ~std::uint64_t(0) : 0;
            off[l] = static_cast<long long>(vb[l] - values_base);
        }
        const __m512i offv =
            _mm512_set_epi64(off[7], off[6], off[5], off[4], off[3],
                             off[2], off[1], off[0]);

        __m512d dot = _mm512_setzero_pd();
        __m512d na = _mm512_setzero_pd();
        __m512d nb = _mm512_setzero_pd();
        __m512d sum_a = _mm512_setzero_pd();
        __m512d sum_b = _mm512_setzero_pd();
        std::size_t overlap[kLanes] = {};

        for (std::size_t w = 0; w < words; ++w) {
            const std::uint64_t aw = ma[w];
            if (aw == 0)
                continue;
            std::uint64_t m[kLanes];
            std::uint64_t uni = 0;
            for (std::size_t l = 0; l < kLanes; ++l) {
                m[l] = aw & mb[l][w] & keep[l];
                uni |= m[l];
            }
            if (uni == 0)
                continue;
            bool allDense = true;
            for (std::size_t l = 0; l < kLanes; ++l) {
                overlap[l] +=
                    static_cast<std::size_t>(std::popcount(m[l]));
                allDense = allDense && m[l] == uni;
            }
            const std::size_t base = w * 64;

            if (allDense) {
                while (uni) {
                    const std::size_t r =
                        base + static_cast<std::size_t>(
                                   std::countr_zero(uni));
                    uni &= uni - 1;
                    const __m512d x = _mm512_set1_pd(va[r]);
                    const __m512d y = gatherRow(values_base, offv, r);
                    dot = _mm512_add_pd(dot, _mm512_mul_pd(x, y));
                    na = _mm512_add_pd(na, _mm512_mul_pd(x, x));
                    nb = _mm512_add_pd(nb, _mm512_mul_pd(y, y));
                    sum_a = _mm512_add_pd(sum_a, x);
                    sum_b = _mm512_add_pd(sum_b, y);
                }
                continue;
            }

            const __m512i mvec = _mm512_set_epi64(
                static_cast<long long>(m[7]),
                static_cast<long long>(m[6]),
                static_cast<long long>(m[5]),
                static_cast<long long>(m[4]),
                static_cast<long long>(m[3]),
                static_cast<long long>(m[2]),
                static_cast<long long>(m[1]),
                static_cast<long long>(m[0]));
            while (uni) {
                const int bit = std::countr_zero(uni);
                uni &= uni - 1;
                const std::size_t r =
                    base + static_cast<std::size_t>(bit);
                const __m512i bitv = _mm512_set1_epi64(
                    static_cast<long long>(std::uint64_t(1) << bit));
                const __mmask8 lane =
                    _mm512_test_epi64_mask(mvec, bitv);
                const __m512d x = _mm512_set1_pd(va[r]);
                const __m512d y = gatherRow(values_base, offv, r);
                dot = _mm512_mask_add_pd(dot, lane, dot,
                                         _mm512_mul_pd(x, y));
                na = _mm512_mask_add_pd(na, lane, na,
                                        _mm512_mul_pd(x, x));
                nb = _mm512_mask_add_pd(nb, lane, nb,
                                        _mm512_mul_pd(y, y));
                sum_a = _mm512_mask_add_pd(sum_a, lane, sum_a, x);
                sum_b = _mm512_mask_add_pd(sum_b, lane, sum_b, y);
            }
        }

        double dotv[kLanes], nav[kLanes], nbv[kLanes];
        double sav[kLanes], sbv[kLanes];
        _mm512_storeu_pd(dotv, dot);
        _mm512_storeu_pd(nav, na);
        _mm512_storeu_pd(nbv, nb);
        _mm512_storeu_pd(sav, sum_a);
        _mm512_storeu_pd(sbv, sum_b);
        for (std::size_t l = 0; l < lanes; ++l)
            out[k0 + l] =
                finishSimilarity(kind, min_overlap, overlap[l], dotv[l],
                                 nav[l], nbv[l], sav[l], sbv[l]);
    }
}

void
knnAccumulateBlockAvx512(const double *tri, std::size_t items,
                         const std::size_t *cs, std::size_t count,
                         const std::uint64_t *const *active,
                         std::size_t words, const double *dev,
                         double *num, double *den)
{
    for (std::size_t k0 = 0; k0 < count; k0 += kLanes) {
        const std::size_t lanes = std::min(kLanes, count - k0);

        std::size_t c[kLanes];
        const std::uint64_t *mask[kLanes];
        std::uint64_t keep[kLanes];
        std::size_t base[kLanes];
        std::size_t cmin = items, cmax = 0;
        for (std::size_t l = 0; l < kLanes; ++l) {
            c[l] = cs[k0 + (l < lanes ? l : 0)];
            mask[l] = active[k0 + (l < lanes ? l : 0)];
            keep[l] = l < lanes ? ~std::uint64_t(0) : 0;
            base[l] = triRowOffset(c[l], items) - c[l] - 1;
            cmin = std::min(cmin, c[l]);
            cmax = std::max(cmax, c[l]);
        }

        __m512d vnum = _mm512_setzero_pd();
        __m512d vden = _mm512_setzero_pd();

        for (std::size_t w = 0; w < words; ++w) {
            std::uint64_t m[kLanes];
            std::uint64_t uni = 0;
            for (std::size_t l = 0; l < kLanes; ++l) {
                m[l] = mask[l][w] & keep[l];
                uni |= m[l];
            }
            if (uni == 0)
                continue;
            const __m512i mvec = _mm512_set_epi64(
                static_cast<long long>(m[7]),
                static_cast<long long>(m[6]),
                static_cast<long long>(m[5]),
                static_cast<long long>(m[4]),
                static_cast<long long>(m[3]),
                static_cast<long long>(m[2]),
                static_cast<long long>(m[1]),
                static_cast<long long>(m[0]));
            const std::size_t wbase = w * 64;
            while (uni) {
                const int bit = std::countr_zero(uni);
                uni &= uni - 1;
                const std::size_t c2 =
                    wbase + static_cast<std::size_t>(bit);

                double sv[kLanes];
                if (c2 > cmax) {
                    for (std::size_t l = 0; l < kLanes; ++l)
                        sv[l] = tri[base[l] + c2];
                } else if (c2 < cmin) {
                    const std::size_t row =
                        triRowOffset(c2, items) - c2 - 1;
                    for (std::size_t l = 0; l < kLanes; ++l)
                        sv[l] = tri[row + c[l]];
                } else {
                    const std::size_t row =
                        triRowOffset(c2, items) - c2 - 1;
                    for (std::size_t l = 0; l < kLanes; ++l) {
                        if (c2 == c[l])
                            sv[l] = 0.0;
                        else
                            sv[l] = c2 > c[l] ? tri[base[l] + c2]
                                              : tri[row + c[l]];
                    }
                }
                const __m512d s =
                    _mm512_set_pd(sv[7], sv[6], sv[5], sv[4], sv[3],
                                  sv[2], sv[1], sv[0]);

                const __m512i bitv = _mm512_set1_epi64(
                    static_cast<long long>(std::uint64_t(1) << bit));
                const __mmask8 lane =
                    _mm512_test_epi64_mask(mvec, bitv);
                vnum = _mm512_mask_add_pd(
                    vnum, lane, vnum,
                    _mm512_mul_pd(s, _mm512_set1_pd(dev[c2])));
                vden = _mm512_mask_add_pd(vden, lane, vden, s);
            }
        }

        double numv[kLanes], denv[kLanes];
        _mm512_storeu_pd(numv, vnum);
        _mm512_storeu_pd(denv, vden);
        for (std::size_t l = 0; l < lanes; ++l) {
            num[k0 + l] = numv[l];
            den[k0 + l] = denv[l];
        }
    }
}

} // namespace simd

} // namespace cooper

#endif // COOPER_SIMD_X86
