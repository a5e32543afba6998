//! Image rescaling: box-filter (area-average) downscale, nearest and
//! bilinear resampling.
//!
//! APF projects every quadtree leaf — whatever its size — onto a single
//! minimal patch size `P_m`; area averaging is the natural projection for
//! downscale factors > 1 and is also used to derive lower-resolution dataset
//! variants from high-resolution sources.

use crate::image::GrayImage;

/// Area-average resample to an arbitrary target size.
///
/// Each output pixel averages the axis-aligned source rectangle it covers
/// (exact box filter, fractional edges included). For integer upscales this
/// degenerates to nearest-neighbour replication.
pub fn resize_area(img: &GrayImage, out_w: usize, out_h: usize) -> GrayImage {
    assert!(out_w > 0 && out_h > 0, "resize to zero size");
    if out_w == img.width() && out_h == img.height() {
        return img.clone();
    }
    let sx = img.width() as f64 / out_w as f64;
    let sy = img.height() as f64 / out_h as f64;
    let mut out = vec![0.0f32; out_w * out_h];
    for (oy, row) in out.chunks_mut(out_w).enumerate() {
        let y0 = oy as f64 * sy;
        let y1 = (oy + 1) as f64 * sy;
        for (ox, o) in row.iter_mut().enumerate() {
            let x0 = ox as f64 * sx;
            let x1 = (ox + 1) as f64 * sx;
            *o = box_average(img, x0, y0, x1, y1);
        }
    }
    GrayImage::from_raw(out_w, out_h, out)
}

/// Average of the (fractional) source rectangle `[x0, x1) x [y0, y1)`.
fn box_average(img: &GrayImage, x0: f64, y0: f64, x1: f64, y1: f64) -> f32 {
    let ix0 = x0.floor() as usize;
    let iy0 = y0.floor() as usize;
    let ix1 = (x1.ceil() as usize).min(img.width());
    let iy1 = (y1.ceil() as usize).min(img.height());
    let mut acc = 0.0f64;
    let mut area = 0.0f64;
    for y in iy0..iy1 {
        let wy = overlap(y as f64, y as f64 + 1.0, y0, y1);
        if wy <= 0.0 {
            continue;
        }
        for x in ix0..ix1 {
            let wx = overlap(x as f64, x as f64 + 1.0, x0, x1);
            if wx <= 0.0 {
                continue;
            }
            acc += (img.get(x, y) as f64) * wx * wy;
            area += wx * wy;
        }
    }
    if area > 0.0 {
        (acc / area) as f32
    } else {
        0.0
    }
}

#[inline]
fn overlap(a0: f64, a1: f64, b0: f64, b1: f64) -> f64 {
    (a1.min(b1) - a0.max(b0)).max(0.0)
}

/// Nearest-neighbour resample (used for label masks, where averaging would
/// invent classes).
pub fn resize_nearest(img: &GrayImage, out_w: usize, out_h: usize) -> GrayImage {
    assert!(out_w > 0 && out_h > 0, "resize to zero size");
    let sx = img.width() as f64 / out_w as f64;
    let sy = img.height() as f64 / out_h as f64;
    GrayImage::from_fn(out_w, out_h, |x, y| {
        let srcx = (((x as f64 + 0.5) * sx) as usize).min(img.width() - 1);
        let srcy = (((y as f64 + 0.5) * sy) as usize).min(img.height() - 1);
        img.get(srcx, srcy)
    })
}

/// Bilinear resample (used for qualitative figure rendering).
pub fn resize_bilinear(img: &GrayImage, out_w: usize, out_h: usize) -> GrayImage {
    assert!(out_w > 0 && out_h > 0, "resize to zero size");
    let sx = (img.width().max(2) - 1) as f32 / (out_w.max(2) - 1) as f32;
    let sy = (img.height().max(2) - 1) as f32 / (out_h.max(2) - 1) as f32;
    GrayImage::from_fn(out_w, out_h, |x, y| {
        let fx = x as f32 * sx;
        let fy = y as f32 * sy;
        let x0 = fx.floor() as isize;
        let y0 = fy.floor() as isize;
        let tx = fx - x0 as f32;
        let ty = fy - y0 as f32;
        let p00 = img.get_clamped(x0, y0);
        let p10 = img.get_clamped(x0 + 1, y0);
        let p01 = img.get_clamped(x0, y0 + 1);
        let p11 = img.get_clamped(x0 + 1, y0 + 1);
        p00 * (1.0 - tx) * (1.0 - ty) + p10 * tx * (1.0 - ty) + p01 * (1.0 - tx) * ty + p11 * tx * ty
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_downscale_by_two_averages_blocks() {
        let img = GrayImage::from_raw(4, 2, vec![0., 1., 2., 3., 4., 5., 6., 7.]);
        let half = resize_area(&img, 2, 1);
        assert_eq!(half.data(), &[(0. + 1. + 4. + 5.) / 4.0, (2. + 3. + 6. + 7.) / 4.0]);
    }

    #[test]
    fn area_resize_preserves_mean() {
        let img = GrayImage::from_fn(16, 16, |x, y| ((x * 31 + y * 17) % 7) as f32 / 6.0);
        let small = resize_area(&img, 5, 3); // non-integer factor
        assert!((img.mean() - small.mean()).abs() < 0.02);
    }

    #[test]
    fn identity_resize_is_noop() {
        let img = GrayImage::from_fn(7, 5, |x, y| (x + y) as f32);
        assert_eq!(resize_area(&img, 7, 5), img);
    }

    #[test]
    fn nearest_keeps_label_values() {
        // A 2-class mask must stay binary through nearest resize.
        let img = GrayImage::from_fn(9, 9, |x, _| if x > 4 { 1.0 } else { 0.0 });
        let r = resize_nearest(&img, 4, 4);
        for &v in r.data() {
            assert!(v == 0.0 || v == 1.0);
        }
    }

    #[test]
    fn bilinear_interpolates_midpoint() {
        let img = GrayImage::from_raw(2, 1, vec![0.0, 1.0]);
        let up = resize_bilinear(&img, 3, 1);
        assert!((up.get(1, 0) - 0.5).abs() < 1e-5);
    }
}
