//! Separable Gaussian blur and Sobel gradients.

use crate::image::GrayImage;

/// A 1D Gaussian kernel of odd size `k`.
///
/// With `sigma <= 0` the OpenCV convention is used:
/// `sigma = 0.3 * ((k - 1) * 0.5 - 1) + 0.8` — this matches the paper's
/// `GaussianBlur(x; k)` with `sigma = 0`.
pub fn gaussian_kernel(k: usize, sigma: f32) -> Vec<f32> {
    assert!(k % 2 == 1, "Gaussian kernel size must be odd");
    let sigma = if sigma > 0.0 {
        sigma
    } else {
        0.3 * ((k as f32 - 1.0) * 0.5 - 1.0) + 0.8
    };
    let half = (k / 2) as isize;
    let mut kernel: Vec<f32> = (-half..=half)
        .map(|i| (-((i * i) as f32) / (2.0 * sigma * sigma)).exp())
        .collect();
    let sum: f32 = kernel.iter().sum();
    for v in &mut kernel {
        *v /= sum;
    }
    kernel
}

/// Separable Gaussian blur with kernel size `k` and standard deviation
/// `sigma` (`sigma = 0` selects the size-derived default). Border pixels use
/// replicate padding.
pub fn gaussian_blur(img: &GrayImage, k: usize, sigma: f32) -> GrayImage {
    if k <= 1 {
        return img.clone();
    }
    let kernel = gaussian_kernel(k, sigma);
    let half = (k / 2) as isize;
    let (w, h) = (img.width(), img.height());

    // Horizontal pass.
    let mut tmp = vec![0.0f32; w * h];
    for (y, row) in tmp.chunks_mut(w).enumerate() {
        for (x, out) in row.iter_mut().enumerate() {
            let mut s = 0.0;
            for (i, &kv) in kernel.iter().enumerate() {
                s += kv * img.get_clamped(x as isize + i as isize - half, y as isize);
            }
            *out = s;
        }
    }
    let tmp_img = GrayImage::from_raw(w, h, tmp);

    // Vertical pass.
    let mut out = vec![0.0f32; w * h];
    for (y, row) in out.chunks_mut(w).enumerate() {
        for (x, o) in row.iter_mut().enumerate() {
            let mut s = 0.0;
            for (i, &kv) in kernel.iter().enumerate() {
                s += kv * tmp_img.get_clamped(x as isize, y as isize + i as isize - half);
            }
            *o = s;
        }
    }
    GrayImage::from_raw(w, h, out)
}

/// Sobel gradients: returns `(gx, gy)` response images.
pub fn sobel(img: &GrayImage) -> (GrayImage, GrayImage) {
    let (w, h) = (img.width(), img.height());
    let mut gx = vec![0.0f32; w * h];
    let mut gy = vec![0.0f32; w * h];
    for (y, (gxr, gyr)) in gx.chunks_mut(w).zip(gy.chunks_mut(w)).enumerate() {
        let yi = y as isize;
        for x in 0..w {
            let xi = x as isize;
            let p = |dx: isize, dy: isize| img.get_clamped(xi + dx, yi + dy);
            gxr[x] = (p(1, -1) + 2.0 * p(1, 0) + p(1, 1))
                - (p(-1, -1) + 2.0 * p(-1, 0) + p(-1, 1));
            gyr[x] = (p(-1, 1) + 2.0 * p(0, 1) + p(1, 1))
                - (p(-1, -1) + 2.0 * p(0, -1) + p(1, -1));
        }
    }
    (
        GrayImage::from_raw(w, h, gx),
        GrayImage::from_raw(w, h, gy),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_normalized_and_symmetric() {
        for k in [3, 5, 7, 9] {
            let kern = gaussian_kernel(k, 0.0);
            let sum: f32 = kern.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            for i in 0..k / 2 {
                assert!((kern[i] - kern[k - 1 - i]).abs() < 1e-6);
            }
            assert!(kern[k / 2] >= kern[0]);
        }
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn even_kernel_panics() {
        gaussian_kernel(4, 1.0);
    }

    #[test]
    fn blur_preserves_constant_images() {
        let img = GrayImage::from_raw(8, 8, vec![0.37; 64]);
        let b = gaussian_blur(&img, 5, 0.0);
        for &v in b.data() {
            assert!((v - 0.37).abs() < 1e-5);
        }
    }

    #[test]
    fn blur_preserves_mean_energy() {
        // Replicate padding keeps total mass approximately constant for
        // smooth images; check the mean moves by < 1%.
        let img = GrayImage::from_fn(32, 32, |x, y| {
            0.5 + 0.4 * ((x as f32 / 8.0).sin() * (y as f32 / 8.0).cos())
        });
        let b = gaussian_blur(&img, 7, 0.0);
        assert!((img.mean() - b.mean()).abs() < 0.01);
    }

    #[test]
    fn blur_reduces_variance() {
        let img = GrayImage::from_fn(32, 32, |x, y| ((x + y) % 2) as f32);
        let b = gaussian_blur(&img, 5, 0.0);
        let var = |im: &GrayImage| {
            let m = im.mean();
            im.data().iter().map(|&v| (v - m) * (v - m)).sum::<f32>() / im.data().len() as f32
        };
        assert!(var(&b) < var(&img) * 0.2);
    }

    #[test]
    fn sobel_detects_vertical_edge() {
        let img = GrayImage::from_fn(8, 8, |x, _| if x < 4 { 0.0 } else { 1.0 });
        let (gx, gy) = sobel(&img);
        // Strong horizontal gradient at the boundary column, none vertically.
        assert!(gx.get(4, 4).abs() > 1.0);
        assert!(gy.get(4, 4).abs() < 1e-5);
    }
}
