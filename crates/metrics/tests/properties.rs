//! Property tests for the quality metrics: metric axioms that must hold for
//! arbitrary images.

use holoar_metrics::{mse, psnr, Image};
use proptest::prelude::*;

fn arb_image() -> impl Strategy<Value = Image> {
    (2usize..10, 2usize..10)
        .prop_flat_map(|(rows, cols)| {
            prop::collection::vec(0.0f64..2.0, rows * cols)
                .prop_map(move |data| Image::new(rows, cols, data).expect("valid image"))
        })
}

fn pair() -> impl Strategy<Value = (Image, Image)> {
    (2usize..10, 2usize..10).prop_flat_map(|(rows, cols)| {
        (
            prop::collection::vec(0.0f64..2.0, rows * cols),
            prop::collection::vec(0.0f64..2.0, rows * cols),
        )
            .prop_map(move |(a, b)| {
                (
                    Image::new(rows, cols, a).expect("valid image"),
                    Image::new(rows, cols, b).expect("valid image"),
                )
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// MSE is a symmetric, non-negative, identity-of-indiscernibles metric
    /// core.
    #[test]
    fn mse_axioms((a, b) in pair()) {
        let ab = mse(&a, &b).unwrap();
        let ba = mse(&b, &a).unwrap();
        prop_assert!(ab >= 0.0);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert_eq!(mse(&a, &a).unwrap(), 0.0);
    }

    /// PSNR of an image against itself is infinite; against anything else
    /// it is finite and decreases as MSE grows.
    #[test]
    fn psnr_matches_mse_ordering(a in arb_image(), noise in 0.01f64..0.5) {
        prop_assume!(a.max_value() > 0.0);
        let small: Vec<f64> = a.pixels().iter().map(|v| v + noise * 0.1).collect();
        let large: Vec<f64> = a.pixels().iter().map(|v| v + noise).collect();
        let b_small = Image::new(a.rows(), a.cols(), small).unwrap();
        let b_large = Image::new(a.rows(), a.cols(), large).unwrap();
        prop_assert!(psnr(&a, &a).unwrap().is_infinite());
        let p_small = psnr(&a, &b_small).unwrap();
        let p_large = psnr(&a, &b_large).unwrap();
        prop_assert!(p_small > p_large, "{p_small} vs {p_large}");
    }

    /// Uniform intensity scaling of both images leaves MSE-per-peak² (and
    /// hence PSNR) unchanged.
    #[test]
    fn psnr_is_scale_invariant((a, b) in pair(), scale in 0.1f64..5.0) {
        prop_assume!(a.max_value() > 0.0);
        prop_assume!(mse(&a, &b).unwrap() > 1e-12);
        let scale_img = |img: &Image| {
            Image::new(
                img.rows(),
                img.cols(),
                img.pixels().iter().map(|v| v * scale).collect(),
            )
            .unwrap()
        };
        let p0 = psnr(&a, &b).unwrap();
        let p1 = psnr(&scale_img(&a), &scale_img(&b)).unwrap();
        prop_assert!((p0 - p1).abs() < 1e-9, "{p0} vs {p1}");
    }

    /// Normalization never changes image shape and caps the peak at 1.
    #[test]
    fn normalization_properties(a in arb_image()) {
        let n = a.normalized();
        prop_assert!(n.same_shape(&a));
        prop_assert!(n.max_value() <= 1.0 + 1e-12);
        if a.max_value() > 0.0 {
            prop_assert!((n.max_value() - 1.0).abs() < 1e-12);
        }
    }
}
