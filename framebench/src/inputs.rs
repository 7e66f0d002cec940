//! The workloads' fixed shape and their seeded inputs.
//!
//! The seed fixes the dataset noise, the orbit's start yaw, the `views`
//! list and the compose scene's camera; the program only ever receives
//! the generated inputs.

use crate::stats::Rng;
use rt_compress::CodecKind;
use rt_core::method::Method;
use rt_core::rotate::RtVariant;
use rt_pvr::{OrbitConfig, PipelineConfig};
use rt_render::camera::{factorize, Camera};
use rt_render::datasets::Dataset;
use rt_render::shearwarp::RenderOptions;

/// Ranks per frame (4× oversubscribed on a 2-core host).
pub const P: usize = 8;

/// Problem size of one run.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Cubic volume resolution.
    pub volume: usize,
    /// Square frame side.
    pub frame: usize,
    /// Frames per streamed quarter orbit.
    pub orbit_frames: usize,
    /// Set-ups per run whose median is `setup_s` (`views`, `compose*`).
    pub setups: usize,
}

impl Size {
    /// The paper's frame: 256³ volume, 512² image.
    pub const PAPER: Size = Size {
        volume: 256,
        frame: 512,
        orbit_frames: 12,
        setups: 3,
    };

    /// A tiny frame for the benchmark's own test.
    pub const SMOKE: Size = Size {
        volume: 24,
        frame: 40,
        orbit_frames: 4,
        setups: 2,
    };

    pub fn render(&self) -> RenderOptions {
        RenderOptions {
            width: self.frame,
            height: self.frame,
            ..RenderOptions::paper()
        }
    }
}

/// The frame method of the rendering workloads: 2N_RT with four blocks.
pub const FRAME_METHOD: Method = Method::RotateTiling {
    variant: RtVariant::TwoN,
    blocks: 4,
};

/// One `views` input: a dataset under a camera.
#[derive(Debug, Clone, Copy)]
pub struct View {
    pub dataset: Dataset,
    pub camera: Camera,
}

/// Every seeded input of every workload.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub size: Size,
    /// Dataset noise seed.
    pub noise: u64,
    pub orbit: OrbitConfig,
    pub views: Vec<View>,
    pub scene_camera: Camera,
}

impl Inputs {
    pub fn new(seed: u64, size: Size) -> Self {
        let mut rng = Rng::new(seed);
        let noise = rng.next_u64();
        // Any start in [0, 0.1) sweeps across yaw π/4 and stops short of
        // 3π/4: exactly one principal-axis change per stream.
        let start_yaw = rng.range(0.0, 0.1);
        let orbit = OrbitConfig {
            frames: size.orbit_frames,
            start_yaw,
            end_yaw: start_yaw + std::f64::consts::FRAC_PI_2,
            pitch: 0.2,
        };
        let views = (0..6)
            .map(|i| {
                let dataset = Dataset::PAPER[i % 3];
                let axis = (i + i / 3) % 3;
                View {
                    dataset,
                    camera: view_on_axis(&mut rng, axis, size),
                }
            })
            .collect();
        let scene_camera = Camera::yaw_pitch(rng.range(0.37, 0.43), rng.range(0.17, 0.23));
        Inputs {
            size,
            noise,
            orbit,
            views,
            scene_camera,
        }
    }

    /// The per-frame pipeline settings for `dataset` under `camera`.
    pub fn pipeline(&self, dataset: Dataset, camera: Camera) -> PipelineConfig {
        PipelineConfig {
            dataset,
            volume_size: self.size.volume,
            seed: self.noise,
            camera,
            render: self.size.render(),
            method: FRAME_METHOD,
            codec: CodecKind::Trle,
            root: 0,
        }
    }
}

/// A seeded camera whose principal axis is `axis`: jittered around an
/// oblique base view of that axis, redrawn until the factorization agrees.
fn view_on_axis(rng: &mut Rng, axis: usize, size: Size) -> Camera {
    use std::f64::consts::FRAC_PI_2;
    let (yaw, pitch) = match axis {
        0 => (FRAC_PI_2 - 0.35, 0.2),
        1 => (0.3, FRAC_PI_2 - 0.4),
        _ => (0.35, 0.2),
    };
    let dims = (size.volume, size.volume, size.volume);
    loop {
        let camera =
            Camera::yaw_pitch(yaw + rng.range(-0.05, 0.05), pitch + rng.range(-0.05, 0.05));
        if factorize(&camera, dims, size.frame, size.frame).axis == axis {
            return camera;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let a = Inputs::new(3, Size::PAPER);
        let b = Inputs::new(3, Size::PAPER);
        let c = Inputs::new(4, Size::PAPER);
        assert_eq!(a.noise, b.noise);
        assert_eq!(a.orbit, b.orbit);
        assert_eq!(a.scene_camera, b.scene_camera);
        assert_ne!(a.noise, c.noise);
    }

    #[test]
    fn views_cover_every_principal_axis_twice() {
        let inputs = Inputs::new(11, Size::PAPER);
        let mut per_axis = [0; 3];
        for v in &inputs.views {
            per_axis[factorize(&v.camera, (256, 256, 256), 512, 512).axis] += 1;
        }
        assert_eq!(per_axis, [2, 2, 2]);
    }

    #[test]
    fn the_orbit_crosses_one_axis_change() {
        for seed in 0..20 {
            let inputs = Inputs::new(seed, Size::PAPER);
            let axes: Vec<usize> = rt_pvr::orbit_cameras(&inputs.orbit)
                .iter()
                .map(|(_, cam)| factorize(cam, (256, 256, 256), 512, 512).axis)
                .collect();
            let changes = axes.windows(2).filter(|w| w[0] != w[1]).count();
            assert_eq!(changes, 1, "seed {seed}: {axes:?}");
        }
    }
}
