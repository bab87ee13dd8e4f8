//! Interpolation operators (Table 2 "Interpolation"): nearest and bilinear
//! up/down-sampling of NCHW maps, as used by SegFormer's decode head and
//! MaskRCNN's FPN.

use ngb_tensor::{num_elements, Tensor, TensorError};

use crate::parallel::{self, Split};
use crate::{OpCost, Result, F32_BYTES};

/// The split both resamplers dispatch for an output `[N, C, oh, ow]`: its
/// `N·C·oh` rows of `ow`.
pub fn output_rows(out: &[usize]) -> Split {
    let ow = out.last().copied().unwrap_or(0);
    Split::rows("resample-row", num_elements(out) / ow.max(1), ow)
}

/// Nearest-neighbor resize of `x: [N, C, H, W]` to `(out_h, out_w)`.
///
/// The source column of every output column is computed once per call,
/// and the [`output_rows`] fan out across chunks.
///
/// # Errors
///
/// Fails on non-NCHW input, an empty input plane or zero output size.
pub fn interpolate_nearest(x: &Tensor, out_h: usize, out_w: usize) -> Result<Tensor> {
    let (n, c, h, w) = nchw(x, out_h, out_w, "interpolate_nearest")?;
    let xs = x.storage_f32().ok_or(TensorError::DTypeMismatch {
        expected: "f32",
        actual: x.dtype().name(),
        op: "interpolate_nearest",
    })?;
    let (sh, sw) = (x.strides()[2], x.strides()[3]);
    let cols: Vec<isize> = (0..out_w)
        .map(|ox| ((ox * w) / out_w) as isize * sw)
        .collect();
    let mut out = vec![0.0f32; n * c * out_h * out_w];
    let rows = output_rows(&[n, c, out_h, out_w]);
    parallel::dispatch_out(rows, &mut out, out_w, |rows, win| {
        for (r, orow) in rows.zip(win.chunks_exact_mut(out_w)) {
            let (plane, oy) = (r / out_h, r % out_h);
            let iy = (oy * h) / out_h;
            let row = chan_base(x, plane / c, plane % c) + iy as isize * sh;
            for (o, &col) in orow.iter_mut().zip(&cols) {
                *o = xs[(row + col) as usize];
            }
        }
    });
    Tensor::from_vec(out, &[n, c, out_h, out_w])
}

/// Bilinear resize of `x: [N, C, H, W]` to `(out_h, out_w)` with
/// `align_corners=false` (PyTorch default) coordinate mapping.
///
/// The column taps and weight `(x0, x1, dx)` are computed once per call,
/// the row taps and weight once per output row, and the [`output_rows`]
/// fan out across chunks. Each element is the same four-term expression,
/// in the same order, as a per-element loop.
///
/// # Errors
///
/// Fails on non-NCHW input, an empty input plane or zero output size.
pub fn interpolate_bilinear(x: &Tensor, out_h: usize, out_w: usize) -> Result<Tensor> {
    let (n, c, h, w) = nchw(x, out_h, out_w, "interpolate_bilinear")?;
    let xs = x.storage_f32().ok_or(TensorError::DTypeMismatch {
        expected: "f32",
        actual: x.dtype().name(),
        op: "interpolate_bilinear",
    })?;
    let (sh, sw) = (x.strides()[2], x.strides()[3]);
    let scale_y = h as f32 / out_h as f32;
    let scale_x = w as f32 / out_w as f32;
    // (x0 offset, x1 offset, dx) per output column
    let cols: Vec<(isize, isize, f32)> = (0..out_w)
        .map(|ox| {
            let (x0, x1, dx) = taps(ox, scale_x, w);
            (x0 as isize * sw, x1 as isize * sw, dx)
        })
        .collect();
    let mut out = vec![0.0f32; n * c * out_h * out_w];
    let rows = output_rows(&[n, c, out_h, out_w]);
    parallel::dispatch_out(rows, &mut out, out_w, |rows, win| {
        for (r, orow) in rows.zip(win.chunks_exact_mut(out_w)) {
            let (plane, oy) = (r / out_h, r % out_h);
            let base = chan_base(x, plane / c, plane % c);
            let (y0, y1, dy) = taps(oy, scale_y, h);
            let (row0, row1) = (base + y0 as isize * sh, base + y1 as isize * sh);
            let at = |off: isize| xs[off as usize];
            for (o, &(x0, x1, dx)) in orow.iter_mut().zip(&cols) {
                *o = at(row0 + x0) * (1.0 - dy) * (1.0 - dx)
                    + at(row0 + x1) * (1.0 - dy) * dx
                    + at(row1 + x0) * dy * (1.0 - dx)
                    + at(row1 + x1) * dy * dx;
            }
        }
    });
    Tensor::from_vec(out, &[n, c, out_h, out_w])
}

/// The two source taps and the weight of the second for output coordinate
/// `o` along an axis of `len > 0` input samples (`align_corners=false`).
fn taps(o: usize, scale: f32, len: usize) -> (usize, usize, f32) {
    let s = ((o as f32 + 0.5) * scale - 0.5).clamp(0.0, (len - 1) as f32);
    let i0 = s.floor() as usize;
    (i0, (i0 + 1).min(len - 1), s - i0 as f32)
}

/// Storage offset of `x[b, ch, 0, 0]` — resamplers walk the input's own
/// strides, so permuted or sliced feature maps read without a copy.
fn chan_base(x: &Tensor, b: usize, ch: usize) -> isize {
    x.storage_offset() as isize + b as isize * x.strides()[0] + ch as isize * x.strides()[1]
}

/// `(N, C, H, W)` of a resampler input, checked: the input must be rank 4
/// with a non-empty `H x W` plane, and the output size nonzero.
fn nchw(
    x: &Tensor,
    out_h: usize,
    out_w: usize,
    op: &'static str,
) -> Result<(usize, usize, usize, usize)> {
    if x.rank() != 4 {
        return Err(TensorError::InvalidArgument(format!(
            "{op} requires NCHW input"
        )));
    }
    let (h, w) = (x.shape()[2], x.shape()[3]);
    if out_h == 0 || out_w == 0 {
        return Err(TensorError::InvalidArgument(
            "interpolate output must be nonzero".into(),
        ));
    }
    if h == 0 || w == 0 {
        return Err(TensorError::InvalidArgument(format!(
            "{op} input plane {h}x{w} is empty"
        )));
    }
    Ok((x.shape()[0], x.shape()[1], h, w))
}

/// Cost of an interpolation producing `out_elems` elements with
/// `flops_per_out` work each (1 for nearest, 11 for bilinear).
pub fn interpolate_cost(in_shape: &[usize], out_elems: usize, bilinear: bool) -> OpCost {
    OpCost {
        flops: out_elems as f64 * if bilinear { 11.0 } else { 1.0 },
        bytes_read: ngb_tensor::num_elements(in_shape) as f64 * F32_BYTES,
        bytes_written: out_elems as f64 * F32_BYTES,
        kernels: 1,
        dynamic: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::test_runner::with_test_runner;
    use crate::parallel::GRAIN_ELEMS;
    use ngb_tensor::random::TensorRng;

    /// The per-element nearest loop the row kernel replaced.
    fn oracle_nearest(x: &Tensor, out_h: usize, out_w: usize) -> Vec<f32> {
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let xs = x.storage_f32().unwrap();
        let (sh, sw) = (x.strides()[2], x.strides()[3]);
        let mut out = vec![0.0f32; n * c * out_h * out_w];
        for b in 0..n {
            for ch in 0..c {
                let base = chan_base(x, b, ch);
                for oy in 0..out_h {
                    let iy = (oy * h) / out_h;
                    for ox in 0..out_w {
                        let ix = (ox * w) / out_w;
                        out[((b * c + ch) * out_h + oy) * out_w + ox] =
                            xs[(base + iy as isize * sh + ix as isize * sw) as usize];
                    }
                }
            }
        }
        out
    }

    /// The per-element bilinear loop the row kernel replaced.
    fn oracle_bilinear(x: &Tensor, out_h: usize, out_w: usize) -> Vec<f32> {
        let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let xs = x.storage_f32().unwrap();
        let (sh, sw) = (x.strides()[2], x.strides()[3]);
        let scale_y = h as f32 / out_h as f32;
        let scale_x = w as f32 / out_w as f32;
        let mut out = vec![0.0f32; n * c * out_h * out_w];
        for b in 0..n {
            for ch in 0..c {
                let base = chan_base(x, b, ch);
                let at = |yy: usize, xx: usize| -> f32 {
                    xs[(base + yy as isize * sh + xx as isize * sw) as usize]
                };
                for oy in 0..out_h {
                    let sy = ((oy as f32 + 0.5) * scale_y - 0.5).clamp(0.0, (h - 1) as f32);
                    let y0 = sy.floor() as usize;
                    let y1 = (y0 + 1).min(h - 1);
                    let dy = sy - y0 as f32;
                    for ox in 0..out_w {
                        let sx = ((ox as f32 + 0.5) * scale_x - 0.5).clamp(0.0, (w - 1) as f32);
                        let x0 = sx.floor() as usize;
                        let x1 = (x0 + 1).min(w - 1);
                        let dx = sx - x0 as f32;
                        let v = at(y0, x0) * (1.0 - dy) * (1.0 - dx)
                            + at(y0, x1) * (1.0 - dy) * dx
                            + at(y1, x0) * dy * (1.0 - dx)
                            + at(y1, x1) * dy * dx;
                        out[((b * c + ch) * out_h + oy) * out_w + ox] = v;
                    }
                }
            }
        }
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn resamplers_match_per_element_loops_bitwise() {
        let mut rng = TensorRng::seed(11);
        let inputs = [
            rng.normal(&[2, 3, 7, 9]),
            // NHWC storage read as NCHW
            rng.normal(&[2, 7, 9, 3]).permute(&[0, 3, 1, 2]).unwrap(),
            rng.normal(&[2, 5, 10, 12])
                .narrow(1, 1, 3)
                .unwrap()
                .narrow(2, 2, 7)
                .unwrap()
                .narrow(3, 3, 9)
                .unwrap(),
        ];
        // up- and down-sampling at odd sizes; 101 x 113 output rows cross
        // one grain, so the row split yields several chunks
        let sizes = [(13, 17), (5, 3), (3, 11), (7, 9), (1, 1), (101, 113)];
        const { assert!(2 * 3 * 101 * 113 > GRAIN_ELEMS) };
        for x in &inputs {
            for &(oh, ow) in &sizes {
                let want_n = bits(&oracle_nearest(x, oh, ow));
                let want_b = bits(&oracle_bilinear(x, oh, ow));
                for threads in [1, 2, 8] {
                    let (got_n, got_b) = with_test_runner(threads, || {
                        (
                            interpolate_nearest(x, oh, ow).unwrap(),
                            interpolate_bilinear(x, oh, ow).unwrap(),
                        )
                    });
                    let what = format!("strides {:?} to {oh}x{ow} threads {threads}", x.strides());
                    assert_eq!(got_n.shape(), &[2, 3, oh, ow]);
                    assert!(
                        bits(&got_n.to_vec_f32().unwrap()) == want_n,
                        "nearest {what}"
                    );
                    assert!(
                        bits(&got_b.to_vec_f32().unwrap()) == want_b,
                        "bilinear {what}"
                    );
                }
            }
        }
    }

    #[test]
    fn nearest_doubling_replicates() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = interpolate_nearest(&x, 4, 4).unwrap();
        assert_eq!(y.at(&[0, 0, 0, 0]).unwrap(), 1.0);
        assert_eq!(y.at(&[0, 0, 0, 1]).unwrap(), 1.0);
        assert_eq!(y.at(&[0, 0, 3, 3]).unwrap(), 4.0);
    }

    #[test]
    fn bilinear_preserves_constant() {
        let x = Tensor::full(&[1, 2, 3, 3], 2.5);
        let y = interpolate_bilinear(&x, 7, 5).unwrap();
        assert!(y
            .to_vec_f32()
            .unwrap()
            .iter()
            .all(|&v| (v - 2.5).abs() < 1e-6));
    }

    #[test]
    fn bilinear_identity_when_same_size() {
        let x = TensorRng::seed(1).normal(&[1, 1, 4, 4]);
        let y = interpolate_bilinear(&x, 4, 4).unwrap();
        for (a, b) in x.to_vec_f32().unwrap().iter().zip(y.to_vec_f32().unwrap()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn bilinear_monotone_on_ramp() {
        let x = Tensor::arange(0.0, 4.0, 1.0)
            .reshape(&[1, 1, 1, 4])
            .unwrap();
        let y = interpolate_bilinear(&x, 1, 8)
            .unwrap()
            .to_vec_f32()
            .unwrap();
        for w in y.windows(2) {
            assert!(w[1] >= w[0], "{y:?} not monotone");
        }
    }

    #[test]
    fn downsample_shapes() {
        let x = TensorRng::seed(2).normal(&[2, 3, 8, 8]);
        assert_eq!(
            interpolate_nearest(&x, 2, 2).unwrap().shape(),
            &[2, 3, 2, 2]
        );
        assert_eq!(
            interpolate_bilinear(&x, 3, 5).unwrap().shape(),
            &[2, 3, 3, 5]
        );
    }

    #[test]
    fn validates() {
        assert!(interpolate_nearest(&Tensor::zeros(&[2, 2]), 2, 2).is_err());
        assert!(interpolate_bilinear(&Tensor::zeros(&[1, 1, 2, 2]), 0, 2).is_err());
        // an empty input plane has nothing to sample from
        for shape in [[1, 1, 0, 3], [1, 1, 3, 0]] {
            let empty = Tensor::zeros(&shape);
            for r in [
                interpolate_nearest(&empty, 2, 2),
                interpolate_bilinear(&empty, 2, 2),
            ] {
                assert!(matches!(r, Err(TensorError::InvalidArgument(_))), "{r:?}");
            }
        }
    }

    #[test]
    fn cost_bilinear_exceeds_nearest() {
        let a = interpolate_cost(&[2, 256, 128, 128], 2 * 256 * 512 * 512, true);
        let b = interpolate_cost(&[2, 256, 128, 128], 2 * 256 * 512 * 512, false);
        assert!(a.flops > b.flops);
        assert_eq!(a.bytes_read, b.bytes_read);
    }
}
