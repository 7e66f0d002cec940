//! The prepared volume every frame path renders from.
//!
//! A [`PreparedVolume`] owns a generated volume and its transfer function,
//! and, for each principal axis a view actually uses, the `p`-slab
//! partition along that axis plus one [`SliceBounds`] per slab (Lacroute's
//! scanline coherence acceleration, [`rt_render::accel`]). Axes are
//! partitioned once, lazily — there are at most three — and each slab's
//! bounds are built once, by the first thread that renders the slab, so
//! the ranks (or the host's worker threads) build them in parallel. An
//! axis's [`Slabs`] own their voxels, so a caller that has every axis it
//! needs may drop the prepared volume, and with it the full-size copy.
//!
//! [`Slabs::render`] is the only way the pipeline, the stream and the
//! scene render a slab. Its output is byte-identical to
//! the unaccelerated [`rt_render::shearwarp::render_intermediate`], which
//! stays as the oracle of the scanline bounds in the tests (it shares the
//! row kernel; the kernel's own oracle is the per-pixel reference sampler
//! in `rt-render`'s tests). Bounds are only built when the
//! transfer function's transparent set is an interval (every
//! [`Dataset`] preset's is); any other transfer function renders with the
//! full scan.

use std::sync::{Arc, OnceLock};

use crate::PvrError;
use rt_imaging::{GrayAlpha, Image};
use rt_render::accel::SliceBounds;
use rt_render::camera::{factorize, Camera, Factorization};
use rt_render::datasets::Dataset;
use rt_render::partition::{depth_order, partition_1d, Subvolume};
use rt_render::shearwarp::{render_intermediate, render_intermediate_accel, RenderOptions};
use rt_render::tf::TransferFunction;
use rt_render::volume::Volume;
use rt_render::RenderError;

/// A volume ready to render on `p` ranks from any view.
#[derive(Debug)]
pub(crate) struct PreparedVolume {
    p: usize,
    volume: Volume,
    tf: TransferFunction,
    axes: [OnceLock<Result<Arc<Slabs>, RenderError>>; 3],
}

/// The `p` slabs of a [`PreparedVolume`] along one principal axis, with
/// each slab's scanline bounds built on first render. The slabs own their
/// voxels, so they outlive the prepared volume they were cut from.
#[derive(Debug)]
pub(crate) struct Slabs {
    parts: Vec<Subvolume>,
    tf: TransferFunction,
    /// Whether bounds may be built: the acceleration is only exact for an
    /// interval transparent set.
    accelerate: bool,
    bounds: Vec<OnceLock<Option<SliceBounds>>>,
}

impl PreparedVolume {
    /// Prepare `volume` under `tf` for `p` ranks.
    pub(crate) fn new(p: usize, volume: Volume, tf: TransferFunction) -> Self {
        PreparedVolume {
            p,
            volume,
            tf,
            axes: Default::default(),
        }
    }

    /// Generate `dataset` at `size³` with noise `seed` and prepare it under
    /// the dataset's transfer function.
    pub(crate) fn generate(p: usize, dataset: Dataset, size: usize, seed: u64) -> Self {
        Self::new(p, dataset.generate(size, seed), dataset.transfer_function())
    }

    /// Number of slabs per axis.
    pub(crate) fn p(&self) -> usize {
        self.p
    }

    /// The view factorization of `camera` for this volume and frame. It is
    /// pure camera/geometry math, identical to what each slab's render
    /// derives internally, so no probe render is needed to learn the axis.
    ///
    /// Errors with [`PvrError::Config`] when the camera cannot be rendered:
    /// a non-finite angle, a negative or non-finite scale, or a warp whose
    /// inverse is not finite (a scale so large the screen map overflows).
    /// Every frame path factorizes here first, so such a view fails typed
    /// instead of rendering garbage.
    pub(crate) fn factorize(
        &self,
        camera: &Camera,
        opts: &RenderOptions,
    ) -> Result<Factorization, PvrError> {
        let bad = |what: &str| PvrError::Config {
            what: format!("camera {camera:?}: {what}"),
        };
        if ![camera.yaw, camera.pitch, camera.roll]
            .iter()
            .all(|a| a.is_finite())
        {
            return Err(bad("non-finite angle"));
        }
        if !(camera.scale.is_finite() && camera.scale >= 0.0) {
            return Err(bad("scale must be finite and non-negative"));
        }
        let f = factorize(camera, self.volume.dims(), opts.width, opts.height);
        let finite_inverse = f
            .warp
            .inverse()
            .is_some_and(|inv| inv.x.iter().chain(&inv.y).all(|c| c.is_finite()));
        if !finite_inverse {
            return Err(bad("the screen warp has no finite inverse"));
        }
        Ok(f)
    }

    /// The slabs along principal axis `axis` (0..3), partitioning the
    /// volume on first use.
    pub(crate) fn slabs(&self, axis: usize) -> Result<Arc<Slabs>, PvrError> {
        let slabs = self.axes[axis].get_or_init(|| {
            partition_1d(&self.volume, self.p, axis).map(|parts| {
                Arc::new(Slabs {
                    bounds: parts.iter().map(|_| OnceLock::new()).collect(),
                    parts,
                    accelerate: self.tf.transparent_is_interval(),
                    tf: self.tf.clone(),
                })
            })
        });
        slabs.clone().map_err(PvrError::Render)
    }
}

impl Slabs {
    /// The slabs; slab `r` is rank `r`'s subvolume.
    pub(crate) fn parts(&self) -> &[Subvolume] {
        &self.parts
    }

    /// Slab indices nearest-first for the view `f` (the compositing
    /// permutation: depth position → rank).
    pub(crate) fn depth_order(&self, f: &Factorization) -> Vec<usize> {
        depth_order(&self.parts, f)
    }

    /// Shear-warp slab `slab` under `camera` (whose principal axis these
    /// slabs are cut along) into its partial intermediate image, skipping
    /// transparent scanline runs. The slab's bounds are built on the first
    /// call; the image equals the unaccelerated render byte for byte.
    ///
    /// # Panics
    ///
    /// If `slab` is not below `self.parts().len()`.
    pub(crate) fn render(
        &self,
        slab: usize,
        camera: &Camera,
        opts: &RenderOptions,
    ) -> Image<GrayAlpha> {
        let sub = &self.parts[slab];
        let bounds = self.bounds[slab].get_or_init(|| {
            let f = factorize(camera, sub.full, opts.width, opts.height);
            self.accelerate
                .then(|| SliceBounds::build(sub, &self.tf, &f))
        });
        match bounds {
            Some(bounds) => render_intermediate_accel(sub, &self.tf, camera, opts, bounds).0,
            None => render_intermediate(sub, &self.tf, camera, opts).0,
        }
    }
}

/// Views [`PreparedVolume::factorize`] must reject: non-finite angles, a
/// non-finite or negative scale, and finite scales whose screen warp has
/// no finite inverse (too large: its determinant overflows; too small: it
/// is degenerate).
#[cfg(test)]
pub(crate) fn unrenderable_cameras() -> Vec<Camera> {
    let scaled = |scale| Camera {
        scale,
        ..Camera::yaw_pitch(0.3, 0.15)
    };
    vec![
        Camera::yaw_pitch(f64::NAN, 0.0),
        Camera::yaw_pitch(0.3, f64::INFINITY),
        Camera {
            roll: f64::NAN,
            ..Camera::front()
        },
        scaled(f64::INFINITY),
        scaled(f64::NAN),
        scaled(-1.0),
        scaled(1e300),
        scaled(1e-300),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unrenderable_cameras_are_config_errors() {
        let prepared = PreparedVolume::generate(2, Dataset::Engine, 12, 1);
        let opts = RenderOptions::square(32);
        for camera in unrenderable_cameras() {
            let err = prepared.factorize(&camera, &opts).unwrap_err();
            assert!(matches!(err, PvrError::Config { .. }), "{camera:?}: {err}");
        }
        // An explicit finite scale, and the auto-fit one, still render.
        for scale in [0.0, 2.0] {
            let camera = Camera {
                scale,
                ..Camera::yaw_pitch(0.3, 0.15)
            };
            assert!(prepared.factorize(&camera, &opts).is_ok(), "{camera:?}");
        }
    }

    fn plain(
        sub: &Subvolume,
        tf: &TransferFunction,
        camera: &Camera,
        opts: &RenderOptions,
    ) -> Image<GrayAlpha> {
        render_intermediate(sub, tf, camera, opts).0
    }

    #[test]
    fn slabs_render_exactly_like_the_plain_renderer_on_every_axis() {
        let prepared = PreparedVolume::generate(3, Dataset::Head, 18, 4);
        let tf = Dataset::Head.transfer_function();
        let opts = RenderOptions::square(40);
        for camera in [
            Camera::front(),
            Camera::yaw_pitch(1.4, 0.1),
            Camera::yaw_pitch(0.2, 1.3),
            Camera::yaw_pitch(std::f64::consts::PI - 0.3, -0.2),
        ] {
            let f = prepared.factorize(&camera, &opts).unwrap();
            let slabs = prepared.slabs(f.axis).unwrap();
            for (r, sub) in slabs.parts().iter().enumerate() {
                let want = plain(sub, &tf, &camera, &opts);
                // Twice: the first call builds the bounds, the second reuses them.
                for _ in 0..2 {
                    let got = slabs.render(r, &camera, &opts);
                    assert_eq!(got.pixels(), want.pixels(), "{camera:?} slab {r}");
                }
            }
        }
    }

    #[test]
    fn axes_are_partitioned_once_and_errors_repeat() {
        let prepared = PreparedVolume::generate(2, Dataset::Engine, 12, 1);
        assert!(Arc::ptr_eq(
            &prepared.slabs(2).unwrap(),
            &prepared.slabs(2).unwrap()
        ));
        let too_many = PreparedVolume::generate(9, Dataset::Engine, 8, 1);
        for _ in 0..2 {
            assert!(matches!(too_many.slabs(0), Err(PvrError::Render(_))));
        }
    }

    #[test]
    fn non_interval_transfer_functions_render_with_the_full_scan() {
        // Transparent at zero and in a mid-range window: bounds would be
        // inexact, so none are built — and the accelerated renderer's
        // interval assertion is never reached.
        let tf = TransferFunction::from_points(&[
            (0, 0.0, 0.0),
            (50, 0.3, 0.4),
            (100, 0.5, 0.0),
            (120, 0.5, 0.0),
            (200, 0.5, 0.5),
        ]);
        assert!(!tf.transparent_is_interval());
        let prepared = PreparedVolume::new(2, Dataset::Engine.generate(12, 2), tf.clone());
        let camera = Camera::yaw_pitch(0.3, 0.2);
        let opts = RenderOptions::square(24);
        let f = prepared.factorize(&camera, &opts).unwrap();
        let slabs = prepared.slabs(f.axis).unwrap();
        for (r, sub) in slabs.parts().iter().enumerate() {
            let got = slabs.render(r, &camera, &opts);
            assert_eq!(got.pixels(), plain(sub, &tf, &camera, &opts).pixels());
            assert!(slabs.bounds[r].get().is_some_and(Option::is_none));
        }
    }
}
