// NEON INT8 kernels (aarch64). Deliberately simpler than the AVX2 path —
// 8 output channels per vector, widening multiplies via vmovl_s8 +
// vmulq_n_s16 (exact: |int8*int8| <= 16384 fits int16), accumulation with
// vaddw_s16 into int32 lanes, requant through the shared int32 scalar
// helper so the arithmetic is trivially identical to the reference.

#include "quant/kernels.hpp"
#include "quant/kernels_internal.hpp"

#if defined(SENECA_KERNELS_NEON)

#include <arm_neon.h>

#include <vector>

namespace seneca::quant::kernels {

namespace {

using detail::rshift_round32;

inline void requant_store8(const std::int32_t* acc, int shift, bool relu,
                           std::int8_t* dst, std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) {
    std::int32_t v = rshift_round32(acc[j], shift);
    if (relu && v < 0) v = 0;
    dst[j] = saturate_i8(v);
  }
}

}  // namespace

void conv2d_neon(const TensorI8& x, const QOp& op, TensorI8& out,
                 int fix_pos_in) {
  const std::int64_t h = x.shape()[0];
  const std::int64_t w = x.shape()[1];
  const std::int64_t ci = x.shape()[2];
  const std::int64_t k = op.kernel;
  const std::int64_t co = op.out_shape[2];
  const std::int64_t pad = k / 2;
  const int shift = fix_pos_in + op.fix_pos_w - op.fix_pos_out;
  const std::int8_t* X = x.data();
  const std::int8_t* W = op.weight_view().data();
  const std::int32_t* B = op.bias.data();
  const std::int64_t co8 = co & ~std::int64_t{7};

  for (std::int64_t oy = 0; oy < h; ++oy) {
    for (std::int64_t ox = 0; ox < w; ++ox) {
      std::int8_t* po = out.data() + (oy * w + ox) * co;
      for (std::int64_t ob = 0; ob < co8; ob += 8) {
        int32x4_t acc0 = vld1q_s32(B + ob);
        int32x4_t acc1 = vld1q_s32(B + ob + 4);
        for (std::int64_t ky = 0; ky < k; ++ky) {
          const std::int64_t iy = oy + ky - pad;
          if (iy < 0 || iy >= h) continue;
          for (std::int64_t kx = 0; kx < k; ++kx) {
            const std::int64_t ix = ox + kx - pad;
            if (ix < 0 || ix >= w) continue;
            const std::int8_t* px = X + (iy * w + ix) * ci;
            const std::int8_t* pw = W + ((ky * k + kx) * ci) * co + ob;
            for (std::int64_t c = 0; c < ci; ++c) {
              const std::int8_t xv = px[c];
              if (xv == 0) continue;
              const int16x8_t w16 = vmovl_s8(vld1_s8(pw + c * co));
              const int16x8_t prod =
                  vmulq_n_s16(w16, static_cast<std::int16_t>(xv));
              acc0 = vaddw_s16(acc0, vget_low_s16(prod));
              acc1 = vaddw_s16(acc1, vget_high_s16(prod));
            }
          }
        }
        std::int32_t tmp[8];
        vst1q_s32(tmp, acc0);
        vst1q_s32(tmp + 4, acc1);
        requant_store8(tmp, shift, op.relu, po + ob, 8);
      }
      // Tail channels: scalar int32.
      for (std::int64_t o = co8; o < co; ++o) {
        std::int32_t acc = B[o];
        for (std::int64_t ky = 0; ky < k; ++ky) {
          const std::int64_t iy = oy + ky - pad;
          if (iy < 0 || iy >= h) continue;
          for (std::int64_t kx = 0; kx < k; ++kx) {
            const std::int64_t ix = ox + kx - pad;
            if (ix < 0 || ix >= w) continue;
            const std::int8_t* px = X + (iy * w + ix) * ci;
            const std::int8_t* pw = W + ((ky * k + kx) * ci) * co + o;
            for (std::int64_t c = 0; c < ci; ++c) {
              acc += static_cast<std::int32_t>(px[c]) *
                     static_cast<std::int32_t>(pw[c * co]);
            }
          }
        }
        requant_store8(&acc, shift, op.relu, po + o, 1);
      }
    }
  }
}

void tconv2d_neon(const TensorI8& x, const QOp& op, TensorI8& out,
                  int fix_pos_in, tensor::TensorArena* arena) {
  const int shift = fix_pos_in + op.fix_pos_w - op.fix_pos_out;

  std::vector<std::int32_t> local;
  std::int32_t* acc = detail::tconv_scratch(op, arena, local);
  detail::tconv_acc_init(op, acc);
  detail::tconv_scatter(
      x, op, acc,
      [](std::int32_t* pa, const std::int8_t* px, const std::int8_t* pw,
         std::int64_t nci, std::int64_t nco) {
        const std::int64_t co8 = nco & ~std::int64_t{7};
        for (std::int64_t c = 0; c < nci; ++c) {
          const std::int8_t xv = px[c];
          if (xv == 0) continue;
          const std::int8_t* pwc = pw + c * nco;
          std::int64_t ob = 0;
          for (; ob < co8; ob += 8) {
            const int16x8_t prod = vmulq_n_s16(
                vmovl_s8(vld1_s8(pwc + ob)), static_cast<std::int16_t>(xv));
            vst1q_s32(pa + ob,
                      vaddw_s16(vld1q_s32(pa + ob), vget_low_s16(prod)));
            vst1q_s32(pa + ob + 4,
                      vaddw_s16(vld1q_s32(pa + ob + 4), vget_high_s16(prod)));
          }
          for (; ob < nco; ++ob) {
            pa[ob] += static_cast<std::int32_t>(xv) *
                      static_cast<std::int32_t>(pwc[ob]);
          }
        }
      });

  const std::int64_t n = op.out_shape.numel();
  requant_store8(acc, shift, op.relu, out.data(), n);
}

void maxpool2d_neon(const TensorI8& x, TensorI8& out) {
  const std::int64_t h = x.shape()[0];
  const std::int64_t w = x.shape()[1];
  const std::int64_t c = x.shape()[2];
  const std::int64_t oh = h / 2, ow = w / 2;
  for (std::int64_t oy = 0; oy < oh; ++oy) {
    for (std::int64_t ox = 0; ox < ow; ++ox) {
      const std::int8_t* p00 = x.data() + ((2 * oy) * w + 2 * ox) * c;
      const std::int8_t* p10 = x.data() + ((2 * oy + 1) * w + 2 * ox) * c;
      std::int8_t* po = out.data() + (oy * ow + ox) * c;
      std::int64_t ch = 0;
      for (; ch + 16 <= c; ch += 16) {
        const int8x16_t m =
            vmaxq_s8(vmaxq_s8(vld1q_s8(p00 + ch), vld1q_s8(p00 + c + ch)),
                     vmaxq_s8(vld1q_s8(p10 + ch), vld1q_s8(p10 + c + ch)));
        vst1q_s8(po + ch, m);
      }
      for (; ch < c; ++ch) {
        po[ch] = std::max(std::max(p00[ch], p00[c + ch]),
                          std::max(p10[ch], p10[c + ch]));
      }
    }
  }
}

}  // namespace seneca::quant::kernels

#endif  // SENECA_KERNELS_NEON
