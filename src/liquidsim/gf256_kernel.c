/* GF(256) products over row pointers, and the byte repair's decode-and-check.
 *
 * The field tables come from gf256.py through gf_init, so this file holds
 * no field definition of its own; LOG and EXP are derived from MUL.  Each
 * kernel has one product routine, gf_matmul_<kernel>(G, m, k, x, out, L):
 * out[i][t] = sum_j G[i*k + j] * x[j][t] for the L columns t, with x and
 * out tables of k and m row pointers, so a product reads and writes rows
 * wherever they lie.
 *
 *   scalar  row by row, o ^= c * x with one 256-entry product-table lookup
 *           per byte
 *   avx2    the same rows with a split-nibble lookup: c*x = c*(x & 15) ^
 *           c*(x >> 4 << 4), each half one 16-entry vpshufb table, 32 bytes
 *           at a time (Plank, Greenan & Miller, "Screaming Fast Galois Field
 *           Arithmetic Using Intel SIMD Instructions", FAST '13)
 *   gfni    multiplying by c is linear over GF(2), so it is one 8x8 bit
 *           matrix, applied to 32 bytes by one vgf2p8affineqb.  The product
 *           is register-blocked: 8 ymm accumulators hold 4 output rows x 64
 *           bytes, so each load of x feeds 4 rows and out is written once,
 *           not read and written once per input row.  Column panels of
 *           GF_PANEL bytes are the outer loop, so a panel of x stays in
 *           cache across the row blocks.  Columns past the last 64-byte
 *           block take one 32-byte step, and the last L % 32 the scalar rows.
 *
 * gf_decode_check(prod, labels, k, n, X, L, count, code, ncode, codeObj) is
 * one byte decode and its check.  It solves the decode matrix of the k sorted
 * EFIs read once, in closed form, then for each of the count objects of X
 * (n rows of L bytes each) multiplies it into the rows read, where they
 * lie, with prod, writes the missing source rows in their own rows and
 * compares rows 0..k-1 with object codeObj[c] of code.  Only fixed stack
 * buffers are used: n is at most GF_MAX_N.
 *
 * gf_init picks the kernel once from the CPU's flags: gfni where the CPU has
 * GFNI and AVX2, else avx2, else scalar, and gf_kernel names it.  The object
 * is built without -march and may be shared between hosts; -DGF_NO_GFNI
 * builds the other two, for a compiler that cannot build the GFNI kernel
 * (gf256.py retries with it).
 */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

#if (defined(__x86_64__) || defined(__i386__)) && !defined(GF_NO_GFNI)
#define GF_GFNI 1
#endif

#define GF_MAX_N 256 /* erasure.MAX_BYTE_N: EFIs are field elements */

typedef void (*matmul_fn)(const uint8_t *G, size_t m, size_t k,
                          const uint8_t *const *x, uint8_t *const *out,
                          size_t L);

static uint8_t MUL[256][256];
static uint8_t EXP[255];
static int LOG[256];         /* LOG[0] = 0, so a zero factor drops out */
static uint8_t NIB[256][32]; /* c * i and c * (i << 4) for i < 16 */
static uint64_t AFF[256];    /* bit matrix of x -> c * x, vgf2p8affineqb form */
static const char *KERNEL = "scalar";

typedef void (*row_fn)(uint8_t *o, const uint8_t *x, size_t L, uint8_t c);

static void row_scalar(uint8_t *o, const uint8_t *x, size_t L, uint8_t c)
{
    const uint8_t *lut = MUL[c];
    for (size_t t = 0; t < L; t++)
        o[t] ^= lut[x[t]];
}

/* Columns t0..L-1 of the product, one output row at a time. */
static void matmul(row_fn row, const uint8_t *G, size_t m, size_t k,
                   const uint8_t *const *x, uint8_t *const *out,
                   size_t t0, size_t L)
{
    for (size_t i = 0; i < m; i++) {
        uint8_t *o = out[i] + t0;
        memset(o, 0, L - t0);
        for (size_t j = 0; j < k; j++)
            if (G[i * k + j])
                row(o, x[j] + t0, L - t0, G[i * k + j]);
    }
}

void gf_matmul_scalar(const uint8_t *G, size_t m, size_t k,
                      const uint8_t *const *x, uint8_t *const *out, size_t L)
{
    matmul(row_scalar, G, m, k, x, out, 0, L);
}

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

__attribute__((target("avx2")))
static void row_avx2(uint8_t *o, const uint8_t *x, size_t L, uint8_t c)
{
    const __m256i lo = _mm256_broadcastsi128_si256(
        _mm_loadu_si128((const __m128i *)NIB[c]));
    const __m256i hi = _mm256_broadcastsi128_si256(
        _mm_loadu_si128((const __m128i *)(NIB[c] + 16)));
    const __m256i mask = _mm256_set1_epi8(0x0f);
    size_t t = 0;
    for (; t + 32 <= L; t += 32) {
        __m256i v = _mm256_loadu_si256((const __m256i *)(x + t));
        __m256i p = _mm256_xor_si256(
            _mm256_shuffle_epi8(lo, _mm256_and_si256(v, mask)),
            _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(v, 4), mask)));
        __m256i acc = _mm256_loadu_si256((const __m256i *)(o + t));
        _mm256_storeu_si256((__m256i *)(o + t), _mm256_xor_si256(acc, p));
    }
    row_scalar(o + t, x + t, L - t, c);
}

void gf_matmul_avx2(const uint8_t *G, size_t m, size_t k,
                    const uint8_t *const *x, uint8_t *const *out, size_t L)
{
    matmul(row_avx2, G, m, k, x, out, 0, L);
}
#endif

#ifdef GF_GFNI
#define GF_PANEL 2048 /* columns per panel, a multiple of 64 */

/* acc ^= c * x for the 32 bytes of x, A = AFF[c] broadcast */
#define GF_MAC(acc, x, A) \
    (acc) = _mm256_xor_si256((acc), _mm256_gf2p8affine_epi64_epi8((x), (A), 0))
#define GF_COEF(r) _mm256_set1_epi64x((long long)AFF[G[(r) * k + j]])
#define GF_STORE(r, t, acc) _mm256_storeu_si256((__m256i *)(out[r] + (t)), (acc))

/* Rows 0..R-1 of G times x into columns t0..t1 of out, t1 - t0 a multiple
 * of 32: 64-byte blocks, then at most one 32-byte block.  R is a constant at
 * each call, so the branches on it fold away and the accumulators stay in
 * registers. */
__attribute__((target("avx2,gfni"), always_inline))
static inline void rows_gfni(const int R, const uint8_t *G, size_t k,
                             const uint8_t *const *x, uint8_t *const *out,
                             size_t t0, size_t t1)
{
    size_t t = t0;
    for (; t + 64 <= t1; t += 64) {
        __m256i a0 = _mm256_setzero_si256(), a1 = a0, b0 = a0, b1 = a0,
                c0 = a0, c1 = a0, d0 = a0, d1 = a0;
        for (size_t j = 0; j < k; j++) {
            const uint8_t *xj = x[j] + t;
            const __m256i x0 = _mm256_loadu_si256((const __m256i *)xj);
            const __m256i x1 = _mm256_loadu_si256((const __m256i *)(xj + 32));
            /* the one new line of this row in the next block: with k rows
             * in flight the hardware prefetcher loses track (this saves
             * about 12 % at (8, 90, 12500) on a 2-vCPU Xeon) */
            _mm_prefetch((const char *)xj + 127, _MM_HINT_T0);
            __m256i A = GF_COEF(0);
            GF_MAC(a0, x0, A);
            GF_MAC(a1, x1, A);
            if (R > 1) {
                A = GF_COEF(1);
                GF_MAC(b0, x0, A);
                GF_MAC(b1, x1, A);
            }
            if (R > 2) {
                A = GF_COEF(2);
                GF_MAC(c0, x0, A);
                GF_MAC(c1, x1, A);
            }
            if (R > 3) {
                A = GF_COEF(3);
                GF_MAC(d0, x0, A);
                GF_MAC(d1, x1, A);
            }
        }
        GF_STORE(0, t, a0);
        GF_STORE(0, t + 32, a1);
        if (R > 1) {
            GF_STORE(1, t, b0);
            GF_STORE(1, t + 32, b1);
        }
        if (R > 2) {
            GF_STORE(2, t, c0);
            GF_STORE(2, t + 32, c1);
        }
        if (R > 3) {
            GF_STORE(3, t, d0);
            GF_STORE(3, t + 32, d1);
        }
    }
    if (t < t1) {
        __m256i a0 = _mm256_setzero_si256(), b0 = a0, c0 = a0, d0 = a0;
        for (size_t j = 0; j < k; j++) {
            const __m256i x0 = _mm256_loadu_si256((const __m256i *)(x[j] + t));
            GF_MAC(a0, x0, GF_COEF(0));
            if (R > 1)
                GF_MAC(b0, x0, GF_COEF(1));
            if (R > 2)
                GF_MAC(c0, x0, GF_COEF(2));
            if (R > 3)
                GF_MAC(d0, x0, GF_COEF(3));
        }
        GF_STORE(0, t, a0);
        if (R > 1)
            GF_STORE(1, t, b0);
        if (R > 2)
            GF_STORE(2, t, c0);
        if (R > 3)
            GF_STORE(3, t, d0);
    }
}

__attribute__((target("avx2,gfni")))
void gf_matmul_gfni(const uint8_t *G, size_t m, size_t k,
                    const uint8_t *const *x, uint8_t *const *out, size_t L)
{
    const size_t Lv = L & ~(size_t)31; /* the columns the vector steps cover */
    for (size_t t0 = 0; t0 < Lv; t0 += GF_PANEL) {
        const size_t t1 = Lv - t0 < GF_PANEL ? Lv : t0 + GF_PANEL;
        size_t i = 0;
        for (; i + 4 <= m; i += 4)
            rows_gfni(4, G + i * k, k, x, out + i, t0, t1);
        switch (m - i) {
        case 3: rows_gfni(3, G + i * k, k, x, out + i, t0, t1); break;
        case 2: rows_gfni(2, G + i * k, k, x, out + i, t0, t1); break;
        case 1: rows_gfni(1, G + i * k, k, x, out + i, t0, t1); break;
        }
    }
    if (Lv < L)
        matmul(row_scalar, G, m, k, x, out, Lv, L);
}
#endif

/* The decode matrix of the k sorted EFIs read: the source rows not read
 * into y, and C (m, k), which takes the rows read to them, into C; returns
 * m, their count.
 *
 * The parity rows read stand in for the missing rows y.  Parity row e of
 * the generator is e / (e ^ j) on column j, so the parity block is diag(x)
 * times the Cauchy matrix 1 / (x_a ^ y_b), and rational interpolation
 * through x and y solves the whole matrix in closed form (Blomer et al.,
 * ICSI TR-95-048; in characteristic 2 the signs vanish): with D(j) =
 * prod_c (j ^ y_c) / prod_a (j ^ x_a), C[b, j] = D(j) / (D(y_b) (y_b ^ j))
 * on the source rows read, further divided by j on the parity rows.
 * Products are sums of logs; LOG[0] is 0, so the zero factors y_b ^ y_b
 * and x_a ^ x_a drop out of D(y_b) and D(x_a), and no row read is in y,
 * so y_b ^ j is nonzero. */
static size_t solve(const int64_t *labels, size_t k, size_t *y, uint8_t *C)
{
    size_t have = 0; /* source rows read: labels[0..have-1] */
    while (have < k && (size_t)labels[have] < k)
        have++;
    const size_t m = k - have;
    const int64_t *x = labels + have;
    for (size_t j = 0, s = 0, b = 0; j < k; j++) {
        if (s < have && (size_t)labels[s] == j)
            s++;
        else
            y[b++] = j;
    }
    int logD[GF_MAX_N]; /* D at labels[0..k-1], then at y: k + m <= n */
    for (size_t i = 0; i < k + m; i++) {
        const size_t v = i < k ? (size_t)labels[i] : y[i - k];
        int s = 0;
        for (size_t c = 0; c < m; c++)
            s += LOG[v ^ y[c]] - LOG[v ^ (size_t)x[c]];
        logD[i] = i < have || i >= k ? s : s - LOG[v];
    }
    for (size_t b = 0; b < m; b++)
        for (size_t j = 0; j < k; j++) {
            int e = (logD[j] - logD[k + b] - LOG[y[b] ^ (size_t)labels[j]]) % 255;
            C[b * k + j] = EXP[e < 0 ? e + 255 : e];
        }
    return m;
}

/* Decode each object of X from the k sorted EFIs in labels with prod, and
 * compare its rows 0..k-1 with object codeObj[c] of the ncode codewords in
 * code (object c where codeObj is NULL; nothing where code is NULL) in one
 * memcmp, as the rows just read and written are still in cache.  Returns
 * the first object that differs, decoded, or count if none does; the
 * objects after it are left as they were.  Returns SIZE_MAX before any
 * product when n is over GF_MAX_N, the labels are not ascending, distinct
 * and below n, or an object has no codeword: the buffers and the rows
 * addressed depend on these. */
size_t gf_decode_check(matmul_fn prod, const int64_t *labels, size_t k,
                       size_t n, uint8_t *X, size_t L, size_t count,
                       const uint8_t *code, size_t ncode,
                       const int64_t *codeObj)
{
    if (n > GF_MAX_N)
        return SIZE_MAX;
    for (size_t j = 0; j < k; j++)
        if (labels[j] < (j ? labels[j - 1] + 1 : 0) || labels[j] >= (int64_t)n)
            return SIZE_MAX;
    for (size_t c = 0; code && c < count; c++) {
        const int64_t ref = codeObj ? codeObj[c] : (int64_t)c;
        if (ref < 0 || ref >= (int64_t)ncode)
            return SIZE_MAX;
    }
    uint8_t C[GF_MAX_N / 2 * GF_MAX_N]; /* m * k <= (n - k) * k <= n^2 / 4 */
    size_t y[GF_MAX_N / 2];
    const uint8_t *x[GF_MAX_N];
    uint8_t *out[GF_MAX_N / 2];
    const size_t m = solve(labels, k, y, C);
    for (size_t c = 0; c < count; c++) {
        uint8_t *obj = X + c * n * L;
        if (m) {
            for (size_t j = 0; j < k; j++)
                x[j] = obj + (size_t)labels[j] * L;
            for (size_t b = 0; b < m; b++)
                out[b] = obj + y[b] * L;
            prod(C, m, k, x, out, L);
        }
        const size_t ref = codeObj ? (size_t)codeObj[c] : c;
        if (code && memcmp(obj, code + ref * n * L, k * L))
            return c;
    }
    return count;
}

void gf_init(const uint8_t *mul)
{
    memcpy(MUL, mul, sizeof MUL);
    EXP[0] = 1; /* 2 generates the field */
    for (int i = 1; i < 255; i++)
        EXP[i] = MUL[EXP[i - 1]][2];
    for (int i = 0; i < 255; i++)
        LOG[EXP[i]] = i;
    for (int c = 0; c < 256; c++) {
        for (int i = 0; i < 16; i++) {
            NIB[c][i] = MUL[c][i];
            NIB[c][16 + i] = MUL[c][i << 4];
        }
        /* bit i of c*x is the parity of x AND byte 7-i: bit j of that byte
         * is bit i of c * 2^j, the image of x's bit j */
        AFF[c] = 0;
        for (int i = 0; i < 8; i++)
            for (int j = 0; j < 8; j++)
                AFF[c] |= (uint64_t)(MUL[c][1 << j] >> i & 1) << (8 * (7 - i) + j);
    }
#if defined(__x86_64__) || defined(__i386__)
    if (__builtin_cpu_supports("avx2")) {
        KERNEL = "avx2";
#ifdef GF_GFNI
        if (__builtin_cpu_supports("gfni"))
            KERNEL = "gfni";
#endif
    }
#endif
}

const char *gf_kernel(void)
{
    return KERNEL;
}
