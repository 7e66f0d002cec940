//! Procedural stand-ins for the Chapel Hill Volume Rendering Test Datasets.
//!
//! The paper evaluates on three volumes from the Chapel Hill collection:
//! the CT **engine** block, an MR **brain**, and a CT **head**. Those files
//! are not redistributable here, so this module synthesizes volumes with
//! the same qualitative structure — what matters to the *composition* stage
//! is the statistics of the partial images (blank margins, smooth gray
//! gradients, occupancy), not anatomical fidelity:
//!
//! * [`Dataset::Engine`] — machined block: stacked slabs, bores drilled
//!   through, dense metal plateaus (high voxel values, crisp edges);
//! * [`Dataset::Brain`] — MR-like: nested soft-tissue ellipsoids with
//!   sinusoidal cortical folds and ventricles, no bright shell;
//! * [`Dataset::Head`] — CT-like: skin layer, bright skull shell, brain
//!   interior, nasal/orbital cavities;
//! * [`Dataset::Sphere`] and [`Dataset::Ramp`] — analytic volumes for
//!   renderer validation.
//!
//! All generators are deterministic for a given seed (value-noise is hashed
//! from voxel coordinates), so every figure is exactly reproducible.

use crate::tf::TransferFunction;
use crate::volume::Volume;
use serde::{Deserialize, Serialize};

/// The test volumes used throughout the benches and examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataset {
    /// CT-engine stand-in (machined slabs and bores).
    Engine,
    /// MR-brain stand-in (soft-tissue shells and folds).
    Brain,
    /// CT-head stand-in (skin / skull / brain shells).
    Head,
    /// A centered soft sphere (validation).
    Sphere,
    /// An axis-aligned scalar ramp (validation).
    Ramp,
}

impl Dataset {
    /// The paper's three evaluation datasets.
    pub const PAPER: [Dataset; 3] = [Dataset::Engine, Dataset::Brain, Dataset::Head];

    /// Short lowercase name (CLI argument / file names).
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Engine => "engine",
            Dataset::Brain => "brain",
            Dataset::Head => "head",
            Dataset::Sphere => "sphere",
            Dataset::Ramp => "ramp",
        }
    }

    /// Generate the volume at `n³` resolution with the given noise seed.
    pub fn generate(self, n: usize, seed: u64) -> Volume {
        match self {
            Dataset::Engine => engine(n, seed),
            Dataset::Brain => brain(n, seed),
            Dataset::Head => head(n, seed),
            Dataset::Sphere => sphere(n),
            Dataset::Ramp => ramp(n),
        }
    }

    /// The transfer function the figures use for this dataset.
    pub fn transfer_function(self) -> TransferFunction {
        match self {
            // Engine: metal is dense; make it fairly opaque with bright
            // highlights.
            Dataset::Engine => TransferFunction::from_points(&[
                (40, 0.1, 0.0),
                (90, 0.45, 0.08),
                (180, 0.95, 0.5),
                (255, 1.0, 0.9),
            ]),
            // Brain: soft tissue, semi-transparent throughout.
            Dataset::Brain => TransferFunction::from_points(&[
                (25, 0.1, 0.0),
                (80, 0.4, 0.05),
                (160, 0.8, 0.25),
                (255, 1.0, 0.45),
            ]),
            // Head: skin faint, skull bright and nearly opaque.
            Dataset::Head => TransferFunction::from_points(&[
                (30, 0.15, 0.0),
                (70, 0.35, 0.04),
                (140, 0.6, 0.12),
                (210, 1.0, 0.85),
                (255, 1.0, 0.95),
            ]),
            Dataset::Sphere => TransferFunction::ramp(30, 200, 0.6),
            Dataset::Ramp => TransferFunction::ramp(1, 255, 0.4),
        }
    }
}

impl std::str::FromStr for Dataset {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "engine" => Ok(Dataset::Engine),
            "brain" => Ok(Dataset::Brain),
            "head" => Ok(Dataset::Head),
            "sphere" => Ok(Dataset::Sphere),
            "ramp" => Ok(Dataset::Ramp),
            other => Err(format!("unknown dataset '{other}'")),
        }
    }
}

/// Deterministic value noise in `[0, 1)` hashed from voxel coordinates.
fn noise(x: usize, y: usize, z: usize, seed: u64) -> f64 {
    // SplitMix64 over the packed coordinates.
    let mut h = seed
        ^ (x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (y as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ (z as u64).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    (h >> 11) as f64 / (1u64 << 53) as f64
}

fn clamp255(v: f64) -> u8 {
    v.clamp(0.0, 255.0) as u8
}

/// Machined engine block: two stacked slabs with cylindrical bores.
fn engine(n: usize, seed: u64) -> Volume {
    let nf = n as f64;
    Volume::from_fn(n, n, n, |x, y, z| {
        // Normalized coordinates in [-1, 1].
        let u = 2.0 * x as f64 / nf - 1.0;
        let v = 2.0 * y as f64 / nf - 1.0;
        let w = 2.0 * z as f64 / nf - 1.0;

        // Main block: |u| < 0.75, |v| < 0.55, |w| < 0.8.
        let in_block = u.abs() < 0.75 && v.abs() < 0.55 && w.abs() < 0.8;
        // Upper housing: a narrower slab on top.
        let in_housing = u.abs() < 0.45 && (0.55..0.85).contains(&v) && w.abs() < 0.6;
        if !in_block && !in_housing {
            return 0;
        }
        // Cylinder bores along y at four stations.
        for (cx, cz) in [(-0.45, -0.4), (-0.15, 0.4), (0.15, -0.4), (0.45, 0.4)] {
            let r2 = (u - cx) * (u - cx) + (w - cz) * (w - cz);
            if r2 < 0.02 {
                return 0;
            }
        }
        // Dense metal with mild machining texture.
        let base = if in_housing { 210.0 } else { 170.0 };
        let tex = 20.0 * (noise(x, y, z, seed) - 0.5);
        // Brighter near the surfaces (CT beam hardening look).
        let edge = 1.0 - (u.abs().max(v.abs()).max(w.abs())).min(1.0);
        clamp255(base + tex + 30.0 * (1.0 - edge).powi(4))
    })
}

/// MR brain: ellipsoidal cortex with folds, inner white matter, ventricles.
fn brain(n: usize, seed: u64) -> Volume {
    let nf = n as f64;
    Volume::from_fn(n, n, n, |x, y, z| {
        let u = 2.0 * x as f64 / nf - 1.0;
        let v = 2.0 * y as f64 / nf - 1.0;
        let w = 2.0 * z as f64 / nf - 1.0;
        // Brain ellipsoid.
        let r = (u * u / 0.55 + v * v / 0.4 + w * w / 0.5).sqrt();
        if r > 1.0 {
            return 0;
        }
        // Cortical folds: radial sinusoid ripple near the surface.
        let theta = v.atan2(u);
        let phi = w.atan2((u * u + v * v).sqrt());
        let fold = 0.04 * ((10.0 * theta).sin() * (8.0 * phi).cos());
        let rf = r + fold;
        // Ventricles: two small interior ellipsoids of CSF (dark).
        for s in [-1.0, 1.0] {
            let dv = ((u - s * 0.12) * (u - s * 0.12) / 0.01
                + (v - 0.05) * (v - 0.05) / 0.02
                + w * w / 0.06)
                .sqrt();
            if dv < 1.0 {
                return clamp255(25.0 + 10.0 * noise(x, y, z, seed));
            }
        }
        let tissue = if rf > 0.82 {
            // Gray matter shell.
            150.0
        } else {
            // White matter interior.
            110.0
        };
        clamp255(tissue + 25.0 * (noise(x, y, z, seed) - 0.5))
    })
}

/// CT head: skin, skull shell, brain, and air cavities.
fn head(n: usize, seed: u64) -> Volume {
    let nf = n as f64;
    Volume::from_fn(n, n, n, |x, y, z| {
        let u = 2.0 * x as f64 / nf - 1.0;
        let v = 2.0 * y as f64 / nf - 1.0;
        let w = 2.0 * z as f64 / nf - 1.0;
        let r = (u * u / 0.6 + v * v / 0.52 + w * w / 0.6).sqrt();
        if r > 1.0 {
            return 0;
        }
        // Nasal/airway cavity: a channel near the front midline.
        if u.abs() < 0.08 && (-0.65..-0.2).contains(&v) && w.abs() < 0.25 {
            return 0;
        }
        let val = if r > 0.94 {
            // Skin.
            60.0
        } else if r > 0.8 {
            // Skull: bright bone.
            230.0
        } else {
            // Brain tissue with orbital sockets darker in front.
            let orbital = ((u.abs() - 0.25).abs() < 0.08
                && (-0.5..-0.3).contains(&v)
                && (0.1..0.3).contains(&w)) as u8;
            if orbital == 1 {
                40.0
            } else {
                120.0
            }
        };
        clamp255(val + 15.0 * (noise(x, y, z, seed) - 0.5))
    })
}

/// Soft-edged centered sphere (smooth, for renderer cross-validation).
fn sphere(n: usize) -> Volume {
    let nf = n as f64;
    Volume::from_fn(n, n, n, |x, y, z| {
        let u = 2.0 * x as f64 / nf - 1.0;
        let v = 2.0 * y as f64 / nf - 1.0;
        let w = 2.0 * z as f64 / nf - 1.0;
        let r = (u * u + v * v + w * w).sqrt();
        clamp255(220.0 * (1.0 - r).clamp(0.0, 1.0).powf(0.7) * 1.2)
    })
}

/// Axis-aligned ramp along x (analytic ground truth).
fn ramp(n: usize) -> Volume {
    Volume::from_fn(n, n, n, |x, _, _| ((x + 1) * 255 / n).min(255) as u8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        for ds in Dataset::PAPER {
            let a = ds.generate(24, 7);
            let b = ds.generate(24, 7);
            assert_eq!(a, b, "{}", ds.name());
            let c = ds.generate(24, 8);
            assert_ne!(a, c, "{} must depend on the seed", ds.name());
        }
    }

    #[test]
    fn every_preset_transfer_function_is_an_interval() {
        // The frame paths only build scanline bounds for interval transfer
        // functions; a preset that is not one would silently render every
        // frame with the full scan.
        use Dataset::*;
        for ds in [Engine, Brain, Head, Sphere, Ramp] {
            // Exhaustive on purpose: a new preset must be listed above.
            match ds {
                Engine | Brain | Head | Sphere | Ramp => {}
            }
            assert!(
                ds.transfer_function().transparent_is_interval(),
                "{}",
                ds.name()
            );
        }
    }

    #[test]
    fn sphere_and_ramp_ignore_seed() {
        assert_eq!(
            Dataset::Sphere.generate(16, 1),
            Dataset::Sphere.generate(16, 2)
        );
        assert_eq!(Dataset::Ramp.generate(16, 1), Dataset::Ramp.generate(16, 2));
    }

    #[test]
    fn volumes_have_empty_margins_and_content() {
        // The composition figures rely on partial images with blank
        // borders: every dataset must have noticeable empty space and
        // noticeable content.
        for ds in Dataset::PAPER {
            let v = ds.generate(32, 42);
            let empty = v.empty_fraction();
            assert!(empty > 0.15, "{}: empty fraction {empty}", ds.name());
            assert!(empty < 0.95, "{}: empty fraction {empty}", ds.name());
        }
    }

    #[test]
    fn engine_has_bores() {
        let v = Dataset::Engine.generate(64, 42);
        // The bore at (-0.45, -0.4) normalized → voxel ≈ (17.6, ., 19.2)
        // must be empty while nearby metal is dense; sample mid-height.
        assert_eq!(v.at(18, 32, 19), 0);
        assert!(v.at(26, 32, 19) > 100);
    }

    #[test]
    fn head_has_bright_skull_shell() {
        let v = Dataset::Head.generate(64, 42);
        // Walk from the center outward along +x at mid-height and find a
        // bone-bright voxel before the air outside.
        let mut found_bone = false;
        for x in 32..64 {
            if v.at(x, 32, 32) > 200 {
                found_bone = true;
                break;
            }
        }
        assert!(found_bone);
    }

    #[test]
    fn ramp_is_monotone_along_x() {
        let v = Dataset::Ramp.generate(16, 0);
        for x in 1..16 {
            assert!(v.at(x, 3, 3) >= v.at(x - 1, 3, 3));
        }
    }

    #[test]
    fn names_parse_roundtrip() {
        for ds in [
            Dataset::Engine,
            Dataset::Brain,
            Dataset::Head,
            Dataset::Sphere,
            Dataset::Ramp,
        ] {
            let parsed: Dataset = ds.name().parse().unwrap();
            assert_eq!(parsed, ds);
        }
        assert!("teapot".parse::<Dataset>().is_err());
    }

    #[test]
    fn noise_is_uniformish() {
        let mut acc = 0.0;
        let k = 1000;
        for i in 0..k {
            acc += noise(i, i * 3 + 1, i * 7 + 2, 99);
        }
        let mean = acc / k as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }
}
