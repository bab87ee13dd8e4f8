//! Pooling operators over NCHW feature maps: max, average, adaptive
//! average, and global average pooling (used by ResNet/MobileNet heads and
//! the FPN in detection models).

use ngb_tensor::{Tensor, TensorError};

use crate::gemm::conv_out_dim;
use crate::{OpCost, Result, F32_BYTES};

fn check_nchw(x: &Tensor, op: &'static str) -> Result<(usize, usize, usize, usize)> {
    if x.rank() != 4 {
        return Err(TensorError::InvalidArgument(format!(
            "{op} requires NCHW input"
        )));
    }
    Ok((x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]))
}

/// Storage offset of element `(b, ch, 0, 0)` plus the per-axis spatial
/// strides, so the pooling loops walk any NCHW view directly — same
/// element values in the same window order as a materialized copy.
#[inline]
fn chan_base(x: &Tensor, b: usize, ch: usize) -> isize {
    x.storage_offset() as isize + b as isize * x.strides()[0] + ch as isize * x.strides()[1]
}

/// 2-D max pooling with square kernel/stride and zero padding
/// (padding contributes `-inf`, like PyTorch).
///
/// # Errors
///
/// Fails on non-NCHW input or zero stride.
pub fn max_pool2d(x: &Tensor, kernel: usize, stride: usize, padding: usize) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw(x, "max_pool2d")?;
    if stride == 0 || kernel == 0 {
        return Err(TensorError::InvalidArgument(
            "max_pool2d kernel/stride must be nonzero".into(),
        ));
    }
    let oh = conv_out_dim(h, kernel, stride, padding);
    let ow = conv_out_dim(w, kernel, stride, padding);
    let xs = x.storage_f32().ok_or(TensorError::DTypeMismatch {
        expected: "f32",
        actual: x.dtype().name(),
        op: "max_pool2d",
    })?;
    let (sh, sw) = (x.strides()[2], x.strides()[3]);
    let mut out = vec![f32::NEG_INFINITY; n * c * oh * ow];
    for b in 0..n {
        for ch in 0..c {
            let base = chan_base(x, b, ch);
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            let iy = oy * stride + ky;
                            let ix = ox * stride + kx;
                            if iy < padding || ix < padding {
                                continue;
                            }
                            let (iy, ix) = (iy - padding, ix - padding);
                            if iy >= h || ix >= w {
                                continue;
                            }
                            best =
                                best.max(xs[(base + iy as isize * sh + ix as isize * sw) as usize]);
                        }
                    }
                    out[((b * c + ch) * oh + oy) * ow + ox] = best;
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, oh, ow])
}

/// 2-D average pooling (count excludes padding, matching PyTorch's
/// `count_include_pad=False` behavior for simplicity).
///
/// # Errors
///
/// Fails on non-NCHW input or zero stride.
pub fn avg_pool2d(x: &Tensor, kernel: usize, stride: usize, padding: usize) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw(x, "avg_pool2d")?;
    if stride == 0 || kernel == 0 {
        return Err(TensorError::InvalidArgument(
            "avg_pool2d kernel/stride must be nonzero".into(),
        ));
    }
    let oh = conv_out_dim(h, kernel, stride, padding);
    let ow = conv_out_dim(w, kernel, stride, padding);
    let xs = x.storage_f32().expect("f32 avg_pool2d input");
    let (sh, sw) = (x.strides()[2], x.strides()[3]);
    let mut out = vec![0.0f32; n * c * oh * ow];
    for b in 0..n {
        for ch in 0..c {
            let base = chan_base(x, b, ch);
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0;
                    let mut cnt = 0usize;
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            let iy = oy * stride + ky;
                            let ix = ox * stride + kx;
                            if iy < padding || ix < padding {
                                continue;
                            }
                            let (iy, ix) = (iy - padding, ix - padding);
                            if iy >= h || ix >= w {
                                continue;
                            }
                            acc += xs[(base + iy as isize * sh + ix as isize * sw) as usize];
                            cnt += 1;
                        }
                    }
                    out[((b * c + ch) * oh + oy) * ow + ox] =
                        if cnt == 0 { 0.0 } else { acc / cnt as f32 };
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, oh, ow])
}

/// Adaptive average pooling to `(out_h, out_w)` (PyTorch bin boundaries).
///
/// # Errors
///
/// Fails on non-NCHW input or zero output dims.
pub fn adaptive_avg_pool2d(x: &Tensor, out_h: usize, out_w: usize) -> Result<Tensor> {
    let (n, c, h, w) = check_nchw(x, "adaptive_avg_pool2d")?;
    if out_h == 0 || out_w == 0 {
        return Err(TensorError::InvalidArgument(
            "adaptive_avg_pool2d output dims must be nonzero".into(),
        ));
    }
    let xs = x.storage_f32().expect("f32 adaptive_avg_pool2d input");
    let (sh, sw) = (x.strides()[2], x.strides()[3]);
    let mut out = vec![0.0f32; n * c * out_h * out_w];
    for b in 0..n {
        for ch in 0..c {
            let base = chan_base(x, b, ch);
            for oy in 0..out_h {
                let y0 = oy * h / out_h;
                let y1 = ((oy + 1) * h).div_ceil(out_h);
                for ox in 0..out_w {
                    let x0 = ox * w / out_w;
                    let x1 = ((ox + 1) * w).div_ceil(out_w);
                    let mut acc = 0.0;
                    for iy in y0..y1 {
                        for ix in x0..x1 {
                            acc += xs[(base + iy as isize * sh + ix as isize * sw) as usize];
                        }
                    }
                    out[((b * c + ch) * out_h + oy) * out_w + ox] =
                        acc / ((y1 - y0) * (x1 - x0)) as f32;
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, out_h, out_w])
}

/// Cost of a pooling kernel reading `in_shape` with window `k × k` and
/// producing `out_elems` outputs.
pub fn pool_cost(in_shape: &[usize], k: usize, out_elems: usize) -> OpCost {
    OpCost {
        flops: (out_elems * k * k) as f64,
        bytes_read: ngb_tensor::num_elements(in_shape) as f64 * F32_BYTES,
        bytes_written: out_elems as f64 * F32_BYTES,
        kernels: 1,
        dynamic: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngb_tensor::random::TensorRng;

    #[test]
    fn max_pool_known() {
        let x = Tensor::from_vec((1..=16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let y = max_pool2d(&x, 2, 2, 0).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.to_vec_f32().unwrap(), vec![6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn max_pool_with_padding() {
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let y = max_pool2d(&x, 3, 2, 1).unwrap();
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.item().unwrap(), 1.0);
    }

    #[test]
    fn avg_pool_known() {
        let x = Tensor::from_vec((1..=16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let y = avg_pool2d(&x, 2, 2, 0).unwrap();
        assert_eq!(y.to_vec_f32().unwrap(), vec![3.5, 5.5, 11.5, 13.5]);
    }

    #[test]
    fn adaptive_pool_divides_evenly() {
        let x = TensorRng::seed(1).normal(&[1, 2, 6, 6]);
        let y = adaptive_avg_pool2d(&x, 3, 3).unwrap();
        assert_eq!(y.shape(), &[1, 2, 3, 3]);
        // top-left bin = mean of x[0,0,0..2,0..2]
        let mut acc = 0.0;
        for iy in 0..2 {
            for ix in 0..2 {
                acc += x.at(&[0, 0, iy, ix]).unwrap();
            }
        }
        assert!((y.at(&[0, 0, 0, 0]).unwrap() - acc / 4.0).abs() < 1e-5);
    }

    #[test]
    fn adaptive_pool_uneven_bins() {
        let x = Tensor::arange(0.0, 5.0, 1.0)
            .reshape(&[1, 1, 1, 5])
            .unwrap();
        let y = adaptive_avg_pool2d(&x, 1, 2).unwrap();
        // bins: [0..3) and [2..5) per ceil boundaries -> [0,1,2] and [2,3,4]
        assert_eq!(y.to_vec_f32().unwrap(), vec![1.0, 3.0]);
    }

    #[test]
    fn validates_inputs() {
        let x = Tensor::zeros(&[2, 2]);
        assert!(max_pool2d(&x, 2, 2, 0).is_err());
        let x4 = Tensor::zeros(&[1, 1, 4, 4]);
        assert!(max_pool2d(&x4, 2, 0, 0).is_err());
        assert!(adaptive_avg_pool2d(&x4, 0, 1).is_err());
    }

    #[test]
    fn pool_cost_reads_whole_input() {
        let c = pool_cost(&[1, 64, 112, 112], 3, 64 * 56 * 56);
        assert_eq!(c.bytes_read, (64.0 * 112.0 * 112.0) * 4.0);
        assert_eq!(c.kernels, 1);
    }
}
