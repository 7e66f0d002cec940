//! Coherence acceleration for the shear-warp renderer.
//!
//! Lacroute & Levoy's renderer owes its speed to run-length encoding the
//! *classified* volume so transparent voxels are skipped without being
//! touched. This module implements the same idea at scanline granularity:
//! [`SliceBounds`] precomputes, for every `(slice, scanline)` of the
//! principal axis, the interval of voxels that are non-transparent under
//! the transfer function (padded by one voxel so bilinear taps stay exact),
//! plus full opacity runs for analysis. The renderer then restricts its
//! gather loop to the bounded interval — identical output, large speedups
//! on the mostly-empty volumes the paper renders.
//!
//! The structure is classification-dependent (like Lacroute's): rebuild it
//! when the transfer function changes, reuse it across views sharing a
//! principal axis. It also records the subvolume extents it was built for,
//! and the renderer ignores bounds built for another subvolume or
//! principal axis than the ones it renders — bounds are an optimisation,
//! never a source of missing voxels.

use crate::camera::Factorization;
use crate::partition::Subvolume;
use crate::tf::TransferFunction;

/// Opacity interval of one scanline: voxel indices `[lo, hi)` along the
/// in-slice `i` axis that may contribute (pre-padded for bilinear taps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanBound {
    /// First potentially contributing voxel index (global coordinates).
    pub lo: isize,
    /// One past the last potentially contributing voxel index.
    pub hi: isize,
}

impl ScanBound {
    const EMPTY: ScanBound = ScanBound { lo: 0, hi: 0 };

    /// True if the scanline is fully transparent.
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }
}

/// Per-(slice, scanline) opacity bounds for one principal axis.
#[derive(Debug, Clone)]
pub struct SliceBounds {
    /// The principal axis this structure was built for.
    pub axis: usize,
    nj: usize,
    k_lo: usize,
    k_hi: usize,
    j_lo: usize,
    /// Per-object-axis extents `[lo, hi)` of the subvolume the bounds
    /// describe.
    extents: [(usize, usize); 3],
    bounds: Vec<ScanBound>,
    /// Number of non-transparent voxels (occupancy statistic).
    pub opaque_voxels: usize,
}

impl SliceBounds {
    /// Build the bounds for `sub` under `tf`, for the factorization's
    /// principal axis. Cost: one classification pass over the subvolume.
    pub fn build(sub: &Subvolume, tf: &TransferFunction, f: &Factorization) -> Self {
        let (k_lo, k_hi) = sub.extent(f.axis);
        let (j_lo, j_hi) = sub.extent(f.plane.1);
        let i_lo = sub.extent(f.plane.0).0 as isize;
        let nj = j_hi - j_lo;
        let nk = k_hi - k_lo;
        // Walk each scanline through the voxel buffer by its stride,
        // classifying through a 256-entry opacity table.
        let opaque: [bool; 256] = std::array::from_fn(|s| !tf.is_transparent(s as u8));
        let stride = sub.vol.strides();
        let (si, ni) = (stride[f.plane.0], sub.vol.dim(f.plane.0));
        let voxels = sub.vol.voxels();
        let mut bounds = Vec::with_capacity(nj * nk);
        let mut opaque_voxels = 0usize;
        for lk in 0..nk {
            for lj in 0..nj {
                let base = lk * stride[f.axis] + lj * stride[f.plane.1];
                let mut lo = None;
                let mut hi = 0isize;
                for li in 0..ni {
                    if opaque[voxels[base + li * si] as usize] {
                        opaque_voxels += 1;
                        let i = i_lo + li as isize;
                        lo.get_or_insert(i);
                        hi = i + 1;
                    }
                }
                bounds.push(match lo {
                    // Pad by one voxel on each side: a bilinear tap centered
                    // up to one voxel outside the opaque interval can still
                    // pull weight from it.
                    Some(lo) => ScanBound {
                        lo: lo - 1,
                        hi: hi + 1,
                    },
                    None => ScanBound::EMPTY,
                });
            }
        }
        Self {
            axis: f.axis,
            nj,
            k_lo,
            k_hi,
            j_lo,
            extents: extents_of(sub),
            bounds,
            opaque_voxels,
        }
    }

    /// True if these bounds were built for `sub`'s extents and `f`'s
    /// principal axis. Bounds of another slab or axis answer `EMPTY` for
    /// scanlines they never saw, so the renderer only uses matching ones.
    pub(crate) fn matches(&self, sub: &Subvolume, f: &Factorization) -> bool {
        self.axis == f.axis && self.extents == extents_of(sub)
    }

    /// Bounds of scanline `(k, j)` in global coordinates; `EMPTY` when the
    /// scanline cannot contribute. `j` rows whose neighbors contribute via
    /// bilinear taps are widened by the caller (see
    /// [`SliceBounds::row_bound`]).
    pub fn get(&self, k: usize, j: usize) -> ScanBound {
        if k < self.k_lo || k >= self.k_hi {
            return ScanBound::EMPTY;
        }
        let j = match j.checked_sub(self.j_lo) {
            Some(j) if j < self.nj => j,
            _ => return ScanBound::EMPTY,
        };
        self.bounds[(k - self.k_lo) * self.nj + j]
    }

    /// Union of the bounds of rows `j` and `j + 1` of slice `k` — the
    /// voxels a bilinear sample with fractional `j` coordinate in
    /// `[j, j+1)` can touch.
    pub fn row_bound(&self, k: usize, j_floor: isize) -> ScanBound {
        let a = if j_floor >= 0 {
            self.get(k, j_floor as usize)
        } else {
            ScanBound::EMPTY
        };
        let b = if j_floor + 1 >= 0 {
            self.get(k, (j_floor + 1) as usize)
        } else {
            ScanBound::EMPTY
        };
        match (a.is_empty(), b.is_empty()) {
            (true, true) => ScanBound::EMPTY,
            (false, true) => a,
            (true, false) => b,
            (false, false) => ScanBound {
                lo: a.lo.min(b.lo),
                hi: a.hi.max(b.hi),
            },
        }
    }

    /// Fraction of voxels that are non-transparent (sparsity statistic).
    pub fn occupancy(&self, total_voxels: usize) -> f64 {
        if total_voxels == 0 {
            return 0.0;
        }
        self.opaque_voxels as f64 / total_voxels as f64
    }
}

fn extents_of(sub: &Subvolume) -> [(usize, usize); 3] {
    [sub.extent(0), sub.extent(1), sub.extent(2)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::{factorize, Camera};
    use crate::datasets::Dataset;
    use crate::volume::Volume;

    fn build_for(vol: Volume, tf: &TransferFunction) -> SliceBounds {
        let sub = Subvolume::whole(vol);
        let f = factorize(&Camera::front(), sub.full, 64, 64);
        SliceBounds::build(&sub, tf, &f)
    }

    #[test]
    fn empty_volume_has_empty_bounds() {
        let tf = TransferFunction::ramp(1, 255, 0.5);
        let b = build_for(Volume::zeros(8, 8, 8), &tf);
        assert_eq!(b.opaque_voxels, 0);
        for k in 0..8 {
            for j in 0..8 {
                assert!(b.get(k, j).is_empty());
            }
        }
        assert_eq!(b.occupancy(512), 0.0);
    }

    #[test]
    fn bounds_cover_opaque_voxels_with_padding() {
        // A single opaque voxel at (3, 2, 5) (front view: axis 2, i = x,
        // j = y).
        let mut vol = Volume::zeros(8, 8, 8);
        vol.set(3, 2, 5, 200);
        let tf = TransferFunction::ramp(1, 255, 0.5);
        let b = build_for(vol, &tf);
        assert_eq!(b.opaque_voxels, 1);
        let sb = b.get(5, 2);
        assert_eq!(sb, ScanBound { lo: 2, hi: 5 }); // padded by one
        assert!(b.get(5, 3).is_empty());
        assert!(b.get(4, 2).is_empty());
        // Out-of-range queries are empty, not panics.
        assert!(b.get(99, 2).is_empty());
        assert!(b.get(5, 99).is_empty());
    }

    #[test]
    fn row_bound_unions_adjacent_rows() {
        let mut vol = Volume::zeros(8, 8, 8);
        vol.set(1, 2, 0, 200);
        vol.set(6, 3, 0, 200);
        let tf = TransferFunction::ramp(1, 255, 0.5);
        let b = build_for(vol, &tf);
        let rb = b.row_bound(0, 2);
        assert_eq!(rb, ScanBound { lo: 0, hi: 8 });
        // Rows (1,2) only see the first voxel.
        assert_eq!(b.row_bound(0, 1), ScanBound { lo: 0, hi: 3 });
        // Fully empty row pair.
        assert!(b.row_bound(0, 5).is_empty());
        // A negative floor only sees row 0, which is empty here.
        assert_eq!(b.row_bound(0, -1), b.get(0, 0));
        assert!(b.row_bound(0, -1).is_empty());
    }

    #[test]
    fn negative_floor_row_bound_is_row_zero() {
        // Row 0 holds content: a sample just above it (floor -1) reaches
        // exactly row 0's interval.
        let mut vol = Volume::zeros(8, 8, 8);
        vol.set(4, 0, 0, 200);
        vol.set(2, 1, 0, 200);
        let tf = TransferFunction::ramp(1, 255, 0.5);
        let b = build_for(vol, &tf);
        assert_eq!(b.get(0, 0), ScanBound { lo: 3, hi: 6 });
        assert_eq!(b.row_bound(0, -1), b.get(0, 0));
        // Row 1 does not leak into the floor -1 pair, but joins floor 0.
        assert_eq!(b.row_bound(0, 0), ScanBound { lo: 1, hi: 6 });
        // A slice with nothing in row 0 stays empty.
        assert!(b.row_bound(1, -1).is_empty());
    }

    /// The per-voxel build the stride walk replaced, kept as its oracle:
    /// every voxel is addressed through 3-D coordinates and classified
    /// through the transfer function.
    fn build_per_voxel(sub: &Subvolume, tf: &TransferFunction, f: &Factorization) -> SliceBounds {
        let (k_lo, k_hi) = sub.extent(f.axis);
        let (i_lo, i_hi) = sub.extent(f.plane.0);
        let (j_lo, j_hi) = sub.extent(f.plane.1);
        let nj = j_hi - j_lo;
        let nk = k_hi - k_lo;
        let mut bounds = vec![ScanBound::EMPTY; nj * nk];
        let mut opaque_voxels = 0usize;
        let off = [sub.offset.0, sub.offset.1, sub.offset.2];
        for k in k_lo..k_hi {
            for j in j_lo..j_hi {
                let mut lo = None;
                let mut hi = 0isize;
                for i in i_lo..i_hi {
                    let mut c = [0usize; 3];
                    c[f.plane.0] = i - off[f.plane.0];
                    c[f.plane.1] = j - off[f.plane.1];
                    c[f.axis] = k - off[f.axis];
                    let scalar = sub.vol.at(c[0], c[1], c[2]);
                    if !tf.is_transparent(scalar) {
                        opaque_voxels += 1;
                        if lo.is_none() {
                            lo = Some(i as isize);
                        }
                        hi = i as isize + 1;
                    }
                }
                let idx = (k - k_lo) * nj + (j - j_lo);
                bounds[idx] = match lo {
                    Some(lo) => ScanBound {
                        lo: lo - 1,
                        hi: hi + 1,
                    },
                    None => ScanBound::EMPTY,
                };
            }
        }
        SliceBounds {
            axis: f.axis,
            nj,
            k_lo,
            k_hi,
            j_lo,
            extents: extents_of(sub),
            bounds,
            opaque_voxels,
        }
    }

    fn assert_same(got: &SliceBounds, want: &SliceBounds, what: &str) {
        assert_eq!(got.axis, want.axis, "{what}");
        assert_eq!(
            (got.nj, got.k_lo, got.k_hi, got.j_lo, got.extents),
            (want.nj, want.k_lo, want.k_hi, want.j_lo, want.extents),
            "{what}"
        );
        assert_eq!(got.bounds, want.bounds, "{what}");
        assert_eq!(got.opaque_voxels, want.opaque_voxels, "{what}");
    }

    #[test]
    fn stride_walk_matches_the_per_voxel_build() {
        // Offset slabs cut along each axis (uneven, so slabs differ in
        // thickness), each bounded for each principal axis: the slab's
        // offset shifts every bound, and the in-slice stride is 1, nx or
        // nx·ny depending on the axis pair.
        let cameras = [
            Camera::front(),
            Camera::yaw_pitch(1.4, 0.1),
            Camera::yaw_pitch(0.2, 1.3),
            Camera::yaw_pitch(std::f64::consts::PI - 0.3, -0.2),
        ];
        let mut axes = [false; 3];
        for dataset in Dataset::PAPER {
            let vol = dataset.generate(19, 11);
            let tf = dataset.transfer_function();
            for cut in 0..3 {
                for part in crate::partition::partition_1d(&vol, 3, cut).unwrap() {
                    for camera in &cameras {
                        let f = factorize(camera, vol.dims(), 40, 40);
                        axes[f.axis] = true;
                        let what = format!(
                            "{} cut {cut} {:?} axis {}",
                            dataset.name(),
                            part.offset,
                            f.axis
                        );
                        let want = build_per_voxel(&part, &tf, &f);
                        assert!(want.opaque_voxels > 0, "{what}");
                        assert_same(&SliceBounds::build(&part, &tf, &f), &want, &what);
                    }
                }
            }
        }
        assert_eq!(axes, [true; 3], "every principal axis is exercised");
    }

    #[test]
    fn occupancy_matches_dataset_sparsity() {
        let vol = Dataset::Engine.generate(24, 3);
        let tf = Dataset::Engine.transfer_function();
        let total = vol.len();
        let b = build_for(vol, &tf);
        let occ = b.occupancy(total);
        assert!(occ > 0.01 && occ < 0.9, "occupancy {occ}");
    }
}
