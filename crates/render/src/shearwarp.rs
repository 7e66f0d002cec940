//! The shear-warp factorization renderer (Lacroute & Levoy).
//!
//! Slices perpendicular to the principal axis are resampled (bilinear
//! gather) into the intermediate image and composited front-to-back with
//! early termination; one 2-D warp then produces the screen frame.
//!
//! [`render_intermediate`] renders a [`Subvolume`] into *full-frame
//! intermediate coordinates*: a rank rendering only its slab produces a
//! partial intermediate image that is blank outside the slab's sheared
//! footprint — exactly the input of the paper's composition stage. The
//! parallel pipeline composites intermediate images and warps once at the
//! root ([`warp_to_screen`]), which is how parallel shear-warp systems
//! (including the paper's) are organized.

use crate::accel::SliceBounds;
use crate::camera::{factorize, Camera, Factorization};
use crate::math::{floor_i64, round_i64};
use crate::partition::Subvolume;
use crate::tf::TransferFunction;
use rayon::prelude::*;
use rt_imaging::{GrayAlpha, Image, Pixel};

/// Rendering options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenderOptions {
    /// Output frame width (pixels).
    pub width: usize,
    /// Output frame height (pixels).
    pub height: usize,
    /// Early-ray-termination opacity threshold (1.0 disables).
    pub early_termination: f32,
    /// Render intermediate-image rows on worker threads. The output is
    /// **bit-identical** to the serial render: parallelism is over rows,
    /// which never share an accumulation pixel, and every slice still
    /// reaches a given pixel in depth order (the serial slice loop and the
    /// parallel row loop are interchanged, not reordered).
    pub parallel: bool,
}

impl RenderOptions {
    /// The paper's 512×512 frames.
    pub fn paper() -> Self {
        Self {
            width: 512,
            height: 512,
            early_termination: 0.98,
            parallel: false,
        }
    }

    /// Square frame of the given size.
    pub fn square(n: usize) -> Self {
        Self {
            width: n,
            height: n,
            early_termination: 0.98,
            parallel: false,
        }
    }

    /// Same options with row-parallel rendering switched on or off.
    pub fn with_parallel(self, parallel: bool) -> Self {
        Self { parallel, ..self }
    }
}

/// Render a subvolume into the full-frame intermediate image.
///
/// Returns the intermediate image and the factorization (needed for the
/// final warp and for depth ordering). All ranks of a partitioned volume
/// produce images of identical shape for the same camera/options, because
/// the factorization depends only on `sub.full`.
pub fn render_intermediate(
    sub: &Subvolume,
    tf: &TransferFunction,
    camera: &Camera,
    opts: &RenderOptions,
) -> (Image<GrayAlpha>, Factorization) {
    render_intermediate_impl(sub, tf, camera, opts, None, composite_row)
}

/// Like [`render_intermediate`], but skipping fully transparent scanline
/// regions via precomputed [`SliceBounds`] — Lacroute's coherence
/// acceleration at scanline granularity. Output is identical to the
/// unaccelerated render (asserted by tests); the transfer function's
/// transparent scalars must form one interval (all presets do — see
/// [`TransferFunction::transparent_is_interval`]). Bounds that were built
/// for another subvolume or principal axis are ignored, and the slab is
/// rendered with the full scan.
pub fn render_intermediate_accel(
    sub: &Subvolume,
    tf: &TransferFunction,
    camera: &Camera,
    opts: &RenderOptions,
    bounds: &SliceBounds,
) -> (Image<GrayAlpha>, Factorization) {
    assert!(
        tf.transparent_is_interval(),
        "scanline-bounds acceleration requires an interval transparent set"
    );
    render_intermediate_impl(sub, tf, camera, opts, Some(bounds), composite_row)
}

/// One slice of the principal-axis sweep, with its shear offsets and the
/// intermediate-image window its footprint can touch — precomputed once so
/// the serial slice-major loop and the parallel row-major loop interchange
/// over the exact same numbers.
struct SliceJob {
    k: usize,
    u_off: f64,
    v_off: f64,
    iu0: usize,
    iu1: usize,
    iv0: usize,
    iv1: usize,
}

/// The depth-ordered slice jobs of `sub` under `f`; both drivers walk this
/// list in order, so every pixel sees its slices front-to-back either way.
fn slice_jobs(sub: &Subvolume, f: &Factorization) -> Vec<SliceJob> {
    let (k_lo, k_hi) = sub.extent(f.axis);
    let (i_lo, i_hi) = sub.extent(f.plane.0);
    let (j_lo, j_hi) = sub.extent(f.plane.1);
    let (w, h) = f.inter_size;
    f.slice_order()
        .filter(|&k| k >= k_lo && k < k_hi)
        .map(|k| {
            let kf = k as f64;
            let u_off = f.origin.0 + f.shear.0 * kf;
            let v_off = f.origin.1 + f.shear.1 * kf;
            // Intermediate pixels whose pre-image lies inside this slice's
            // in-slice extent.
            SliceJob {
                k,
                u_off,
                v_off,
                iu0: (i_lo as f64 + u_off).floor().max(0.0) as usize,
                iu1: ((i_hi as f64 + u_off).ceil() as usize).min(w.saturating_sub(1)),
                iv0: (j_lo as f64 + v_off).floor().max(0.0) as usize,
                iv1: ((j_hi as f64 + v_off).ceil() as usize).min(h.saturating_sub(1)),
            }
        })
        .collect()
}

/// The bilinear taps of one intermediate-image row in one slice:
/// everything about the row's samples that does not depend on the pixel,
/// hoisted out of the pixel loop — the `j` weights and the buffer offsets
/// of the two voxel rows the taps read.
struct RowTaps<'a> {
    voxels: &'a [u8],
    /// Offsets of voxel rows `j0` and `j0 + 1` of the slice in `voxels`;
    /// `None` outside the slab, whose taps read 0.
    rows: [Option<usize>; 2],
    /// Weights of rows `j0` and `j0 + 1`.
    wj: [f64; 2],
    /// Buffer stride and voxel count of the slab along the in-slice `i`
    /// axis.
    si: usize,
    ni: isize,
    /// The slab's offset along `i`.
    off_i: f64,
}

impl<'a> RowTaps<'a> {
    /// The taps of global in-slice row coordinate `gj` on slice `k`
    /// (global principal-axis index, inside `sub`).
    fn new(sub: &'a Subvolume, f: &Factorization, k: usize, gj: f64) -> Self {
        let stride = sub.vol.strides();
        let off = [sub.offset.0, sub.offset.1, sub.offset.2];
        let lj = gj - off[f.plane.1] as f64;
        let j0 = floor_i64(lj);
        let fj = lj - j0 as f64;
        let j0 = j0 as isize;
        let lk = k - off[f.axis];
        let row = |j: isize| {
            (j >= 0 && (j as usize) < sub.vol.dim(f.plane.1))
                .then(|| j as usize * stride[f.plane.1] + lk * stride[f.axis])
        };
        RowTaps {
            voxels: sub.vol.voxels(),
            rows: [row(j0), row(j0 + 1)],
            wj: [1.0 - fj, fj],
            si: stride[f.plane.0],
            ni: sub.vol.dim(f.plane.0) as isize,
            off_i: off[f.plane.0] as f64,
        }
    }

    /// Bilinear scalar sample at global in-slice column coordinate `gi`.
    /// The four taps are read directly when all are inside the slab, and
    /// through the bounds-checked edge path otherwise.
    #[inline(always)]
    fn sample(&self, gi: f64) -> f64 {
        let (voxels, si, ni, wj) = (self.voxels, self.si, self.ni, self.wj);
        let li = gi - self.off_i;
        let i0 = floor_i64(li);
        let fi = li - i0 as f64;
        let i0 = i0 as isize;
        let wi = [1.0 - fi, fi];
        match self.rows {
            [Some(r0), Some(r1)] if i0 >= 0 && i0 < ni - 1 => {
                let (a, b) = (r0 + i0 as usize * si, r1 + i0 as usize * si);
                wi[0] * wj[0] * voxels[a] as f64
                    + wi[1] * wj[0] * voxels[a + si] as f64
                    + wi[0] * wj[1] * voxels[b] as f64
                    + wi[1] * wj[1] * voxels[b + si] as f64
            }
            rows => {
                let mut sum = 0.0;
                for (row, wj) in rows.into_iter().zip(wj) {
                    let Some(row) = row else { continue };
                    for (di, wi) in wi.into_iter().enumerate() {
                        let w = wi * wj;
                        let i = i0 + di as isize;
                        if w > 0.0 && i >= 0 && i < ni {
                            sum += w * voxels[row + i as usize * si] as f64;
                        }
                    }
                }
                sum
            }
        }
    }
}

/// Composite every pixel slice `job` contributes to row `iv` into that row
/// of the intermediate image — the renderer's one row kernel. This is the
/// *only* place sample values are produced, shared verbatim by the serial
/// and parallel drivers: identical float expressions per `(k, iv, iu)` is
/// what makes the two orders bit-identical.
///
/// The row's [`RowTaps`] are built once; each pixel then computes only its
/// `i` coordinate and weights. Every sample is the bit pattern of the
/// per-pixel bilinear sampler (the tests' `reference::slice_sample`):
/// `(i-weight)·(j-weight)·voxel`, summed with `j` outer and `i` inner, on
/// coordinates `l = g - offset` floored to `l0` with fraction `l - l0`. A
/// skipped tap — zero weight or outside the slab — would only have added
/// `+0.0` to a sum that is `≥ +0.0`, so skipping it is bit-neutral.
/// [`floor_i64`] and [`round_i64`] are exact on the finite coordinates a
/// validated camera produces (a coordinate is never `-0.0`, so the integer
/// floor converts back to exactly `l.floor()`), and branch-free: whether a
/// sample rounds up is data-dependent, and a mispredicted branch per pixel
/// costs more than the arithmetic.
#[allow(clippy::too_many_arguments)]
#[inline]
fn composite_row(
    sub: &Subvolume,
    f: &Factorization,
    tf: &TransferFunction,
    opts: &RenderOptions,
    bounds: Option<&SliceBounds>,
    job: &SliceJob,
    iv: usize,
    row: &mut [GrayAlpha],
) {
    let gj = iv as f64 - job.v_off;
    // With bounds: narrow the pixel run to the opaque interval of
    // the two voxel rows this image row samples (conservative,
    // hence pixel-exact).
    let (riu0, riu1) = match bounds {
        None => (job.iu0, job.iu1),
        Some(b) => {
            let rb = b.row_bound(job.k, floor_i64(gj) as isize);
            if rb.is_empty() {
                return;
            }
            let lo = floor_i64(rb.lo as f64 + job.u_off).max(job.iu0 as i64) as usize;
            // ceil(x) = -floor(-x).
            let hi = (-floor_i64(-(rb.hi as f64 + job.u_off))).clamp(0, job.iu1 as i64) as usize;
            if lo > hi {
                return;
            }
            (lo, hi)
        }
    };
    let taps = RowTaps::new(sub, f, job.k, gj);
    for (iu, acc) in row.iter_mut().enumerate().take(riu1 + 1).skip(riu0) {
        if acc.a >= opts.early_termination {
            continue;
        }
        let scalar = taps.sample(iu as f64 - job.u_off);
        let s8 = round_i64(scalar).clamp(0, 255) as u8;
        if tf.is_transparent(s8) {
            continue;
        }
        let sample = tf.classify_premultiplied(s8);
        // Front-to-back: the accumulated pixel is nearer.
        *acc = acc.over(&sample);
    }
}

/// The serial and row-parallel drivers around a row kernel: always
/// [`composite_row`], except in the tests, which also drive the per-pixel
/// `reference::composite_row` as its oracle.
fn render_intermediate_impl<K>(
    sub: &Subvolume,
    tf: &TransferFunction,
    camera: &Camera,
    opts: &RenderOptions,
    bounds: Option<&SliceBounds>,
    kernel: K,
) -> (Image<GrayAlpha>, Factorization)
where
    K: Fn(
            &Subvolume,
            &Factorization,
            &TransferFunction,
            &RenderOptions,
            Option<&SliceBounds>,
            &SliceJob,
            usize,
            &mut [GrayAlpha],
        ) + Sync,
{
    let f = factorize(camera, sub.full, opts.width, opts.height);
    let mut inter: Image<GrayAlpha> = Image::blank(f.inter_size.0, f.inter_size.1);
    let w = inter.width();
    // Bounds of another slab or axis would skip real voxels; the full
    // scan is always exact.
    let bounds = bounds.filter(|b| b.matches(sub, &f));
    let jobs = slice_jobs(sub, &f);

    if opts.parallel && w > 0 && inter.height() > 0 {
        // Row-parallel interchange: rows are independent accumulation
        // domains, and each row still applies its slices in `jobs` order.
        inter
            .pixels_mut()
            .par_chunks_mut(w)
            .enumerate()
            .for_each(|(iv, row)| {
                for job in &jobs {
                    if iv >= job.iv0 && iv <= job.iv1 {
                        kernel(sub, &f, tf, opts, bounds, job, iv, row);
                    }
                }
            });
    } else {
        let pixels = inter.pixels_mut();
        for job in &jobs {
            for iv in job.iv0..=job.iv1 {
                let row = &mut pixels[iv * w..(iv + 1) * w];
                kernel(sub, &f, tf, opts, bounds, job, iv, row);
            }
        }
    }
    (inter, f)
}

/// Bilinear sample of a premultiplied gray image at continuous coordinates
/// (blank outside).
fn image_sample(img: &Image<GrayAlpha>, u: f64, v: f64) -> GrayAlpha {
    let (u0, v0) = (u.floor(), v.floor());
    let (fu, fv) = ((u - u0) as f32, (v - v0) as f32);
    let (u0, v0) = (u0 as isize, v0 as isize);
    let mut out = GrayAlpha::new(0.0, 0.0);
    for dv in 0..2isize {
        for du in 0..2isize {
            let w = (if du == 0 { 1.0 - fu } else { fu }) * (if dv == 0 { 1.0 - fv } else { fv });
            if w <= 0.0 {
                continue;
            }
            let (x, y) = (u0 + du, v0 + dv);
            if x < 0 || y < 0 || x as usize >= img.width() || y as usize >= img.height() {
                continue;
            }
            let p = img.get(x as usize, y as usize);
            out.v += w * p.v;
            out.a += w * p.a;
        }
    }
    out
}

/// Warp a composited intermediate image to the screen frame.
pub fn warp_to_screen(
    inter: &Image<GrayAlpha>,
    f: &Factorization,
    opts: &RenderOptions,
) -> Image<GrayAlpha> {
    let inv = f
        .warp
        .inverse()
        .expect("the warp of a rotation view is invertible");
    Image::from_fn(opts.width, opts.height, |x, y| {
        let (u, v) = inv.apply(x as f64, y as f64);
        image_sample(inter, u, v)
    })
}

/// Render a subvolume straight to the screen: intermediate pass + warp.
pub fn render(
    sub: &Subvolume,
    tf: &TransferFunction,
    camera: &Camera,
    opts: &RenderOptions,
) -> Image<GrayAlpha> {
    let (inter, f) = render_intermediate(sub, tf, camera, opts);
    warp_to_screen(&inter, &f, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::Dataset;
    use crate::partition::{depth_order, partition_1d};
    use rt_imaging::image::reference_composite;

    fn mean_abs_diff(a: &Image<GrayAlpha>, b: &Image<GrayAlpha>) -> f64 {
        assert_eq!(a.len(), b.len());
        let sum: f64 = a
            .pixels()
            .iter()
            .zip(b.pixels())
            .map(|(p, q)| ((p.v - q.v).abs() + (p.a - q.a).abs()) as f64)
            .sum();
        sum / a.len() as f64
    }

    #[test]
    fn blank_volume_renders_blank() {
        let sub = Subvolume::whole(crate::volume::Volume::zeros(8, 8, 8));
        let tf = TransferFunction::ramp(1, 255, 0.5);
        let img = render(&sub, &tf, &Camera::front(), &RenderOptions::square(32));
        assert_eq!(img.count_non_blank(), 0);
    }

    #[test]
    fn sphere_renders_centered_blob() {
        let sub = Subvolume::whole(Dataset::Sphere.generate(32, 0));
        let tf = Dataset::Sphere.transfer_function();
        let opts = RenderOptions::square(96);
        let img = render(&sub, &tf, &Camera::front(), &opts);
        // Content near the center, blank at the corners.
        assert!(img.get(48, 48).a > 0.3, "{:?}", img.get(48, 48));
        assert!(img.get(2, 2).is_blank());
        assert!(img.get(93, 93).is_blank());
        // Roughly symmetric.
        let l = img.get(30, 48).a;
        let r = img.get(66, 48).a;
        assert!((l - r).abs() < 0.15, "{l} vs {r}");
    }

    #[test]
    fn partials_composite_to_the_full_intermediate() {
        // The fundamental parallel-rendering identity: the depth-ordered
        // over-composite of the slab partials equals the full render.
        let vol = Dataset::Engine.generate(24, 3);
        let tf = Dataset::Engine.transfer_function();
        let opts = RenderOptions {
            early_termination: 1.0, // exact associativity check
            ..RenderOptions::square(64)
        };
        for camera in [
            Camera::front(),
            Camera::yaw_pitch(0.4, 0.2),
            Camera::yaw_pitch(std::f64::consts::PI - 0.3, -0.5),
        ] {
            let full = Subvolume::whole(vol.clone());
            let (want, f) = render_intermediate(&full, &tf, &camera, &opts);
            let parts = partition_1d(&vol, 3, f.axis).unwrap();
            let order = depth_order(&parts, &f);
            let partials: Vec<Image<GrayAlpha>> = order
                .iter()
                .map(|&i| render_intermediate(&parts[i], &tf, &camera, &opts).0)
                .collect();
            let got = reference_composite(&partials).unwrap();
            let diff = mean_abs_diff(&want, &got);
            assert!(diff < 1e-4, "camera {camera:?}: mean abs diff {diff}");
        }
    }

    #[test]
    fn early_termination_changes_little() {
        let vol = Dataset::Head.generate(24, 3);
        let tf = Dataset::Head.transfer_function();
        let sub = Subvolume::whole(vol);
        let exact = RenderOptions {
            early_termination: 1.0,
            ..RenderOptions::square(64)
        };
        let fast = RenderOptions::square(64);
        let a = render(&sub, &tf, &Camera::yaw_pitch(0.3, 0.1), &exact);
        let b = render(&sub, &tf, &Camera::yaw_pitch(0.3, 0.1), &fast);
        assert!(mean_abs_diff(&a, &b) < 0.01);
    }

    #[test]
    fn rotated_views_move_content() {
        let vol = Dataset::Engine.generate(24, 3);
        let tf = Dataset::Engine.transfer_function();
        let sub = Subvolume::whole(vol);
        let opts = RenderOptions::square(64);
        let a = render(&sub, &tf, &Camera::front(), &opts);
        let b = render(&sub, &tf, &Camera::yaw_pitch(0.7, 0.0), &opts);
        assert!(a.count_non_blank() > 0);
        assert!(b.count_non_blank() > 0);
        assert!(mean_abs_diff(&a, &b) > 1e-3, "different views must differ");
    }

    #[test]
    fn partial_images_have_blank_margins() {
        // Each slab's partial must be mostly blank — the property TRLE and
        // the bounding codecs exploit.
        let vol = Dataset::Brain.generate(24, 3);
        let tf = Dataset::Brain.transfer_function();
        let parts = partition_1d(&vol, 4, 2).unwrap();
        let opts = RenderOptions::square(64);
        for part in &parts {
            let (img, _) = render_intermediate(part, &tf, &Camera::front(), &opts);
            let blank = 1.0 - img.count_non_blank() as f64 / img.len() as f64;
            assert!(blank > 0.3, "blank fraction {blank}");
        }
    }

    #[test]
    fn warp_preserves_total_presence_roughly() {
        // The warp resamples but must neither invent nor lose most alpha
        // mass for a front view at moderate scale.
        let vol = Dataset::Sphere.generate(24, 0);
        let tf = Dataset::Sphere.transfer_function();
        let sub = Subvolume::whole(vol);
        let opts = RenderOptions::square(96);
        let (inter, f) = render_intermediate(&sub, &tf, &Camera::front(), &opts);
        let screen = warp_to_screen(&inter, &f, &opts);
        let mass =
            |img: &Image<GrayAlpha>| -> f64 { img.pixels().iter().map(|p| p.a as f64).sum() };
        let scale = Camera::front().effective_scale((24, 24, 24), 96, 96);
        let expected = mass(&inter) * scale * scale;
        let got = mass(&screen);
        assert!(
            (got - expected).abs() / expected < 0.1,
            "inter mass {} × {scale}² vs screen {got}",
            mass(&inter)
        );
    }
}

#[cfg(test)]
mod accel_tests {
    use super::*;
    use crate::accel::SliceBounds;
    use crate::datasets::Dataset;
    use crate::partition::partition_1d;

    #[test]
    fn accelerated_render_is_pixel_exact() {
        for dataset in [Dataset::Engine, Dataset::Brain, Dataset::Head] {
            let vol = dataset.generate(24, 5);
            let tf = dataset.transfer_function();
            assert!(tf.transparent_is_interval());
            let sub = Subvolume::whole(vol);
            for camera in [Camera::front(), Camera::yaw_pitch(0.4, -0.3)] {
                let opts = RenderOptions::square(72);
                let (plain, f) = render_intermediate(&sub, &tf, &camera, &opts);
                let bounds = SliceBounds::build(&sub, &tf, &f);
                let (fast, _) = render_intermediate_accel(&sub, &tf, &camera, &opts, &bounds);
                assert_eq!(plain, fast, "{:?} {camera:?}", dataset.name());
            }
        }
    }

    #[test]
    fn accelerated_render_is_exact_on_slabs() {
        let vol = Dataset::Engine.generate(24, 5);
        let tf = Dataset::Engine.transfer_function();
        let camera = Camera::yaw_pitch(0.3, 0.15);
        let opts = RenderOptions {
            early_termination: 1.0,
            ..RenderOptions::square(64)
        };
        let probe = Subvolume::whole(vol.clone());
        let (_, f) = render_intermediate(&probe, &tf, &camera, &opts);
        for part in partition_1d(&vol, 3, f.axis).unwrap() {
            let (plain, _) = render_intermediate(&part, &tf, &camera, &opts);
            let bounds = SliceBounds::build(&part, &tf, &f);
            let (fast, _) = render_intermediate_accel(&part, &tf, &camera, &opts, &bounds);
            assert_eq!(plain, fast);
        }
    }

    #[test]
    fn parallel_render_is_bit_identical() {
        // The row-parallel driver must reproduce the serial render down to
        // the last float bit — plain, accelerated, and on slab partials,
        // with early termination both on and off.
        for dataset in [Dataset::Engine, Dataset::Brain] {
            let vol = dataset.generate(24, 5);
            let tf = dataset.transfer_function();
            let sub = Subvolume::whole(vol.clone());
            for camera in [Camera::front(), Camera::yaw_pitch(0.4, -0.3)] {
                for et in [1.0, 0.98] {
                    let serial = RenderOptions {
                        early_termination: et,
                        ..RenderOptions::square(72)
                    };
                    let par = serial.with_parallel(true);
                    let (want, f) = render_intermediate(&sub, &tf, &camera, &serial);
                    let (got, _) = render_intermediate(&sub, &tf, &camera, &par);
                    assert_eq!(want, got, "{:?} {camera:?} et={et}", dataset.name());
                    let bounds = SliceBounds::build(&sub, &tf, &f);
                    let (want_a, _) =
                        render_intermediate_accel(&sub, &tf, &camera, &serial, &bounds);
                    let (got_a, _) = render_intermediate_accel(&sub, &tf, &camera, &par, &bounds);
                    assert_eq!(want_a, got_a, "accel {:?} {camera:?}", dataset.name());
                }
            }
            let camera = Camera::yaw_pitch(0.3, 0.15);
            let serial = RenderOptions::square(64);
            let (_, f) = render_intermediate(&sub, &tf, &camera, &serial);
            for part in partition_1d(&vol, 3, f.axis).unwrap() {
                let (want, _) = render_intermediate(&part, &tf, &camera, &serial);
                let (got, _) =
                    render_intermediate(&part, &tf, &camera, &serial.with_parallel(true));
                assert_eq!(want, got, "slab {:?}", part.offset);
            }
        }
    }

    #[test]
    fn parallel_render_handles_degenerate_frames() {
        // A zero-size screen still yields a volume-footprint intermediate;
        // the parallel driver must match serial and never chunk by zero.
        let sub = Subvolume::whole(crate::volume::Volume::zeros(4, 4, 4));
        let tf = TransferFunction::ramp(1, 255, 0.5);
        let serial = RenderOptions::square(0);
        let (want, _) = render_intermediate(&sub, &tf, &Camera::front(), &serial);
        let (got, _) =
            render_intermediate(&sub, &tf, &Camera::front(), &serial.with_parallel(true));
        assert_eq!(want, got);
    }

    #[test]
    fn mismatched_bounds_fall_back_to_the_full_scan() {
        // Slab 0's bounds say nothing about slab 1's voxels: handed to
        // slab 1 (or built for another axis) they are ignored, and the
        // render equals the unaccelerated one — in every build profile.
        let vol = Dataset::Head.generate(20, 5);
        let tf = Dataset::Head.transfer_function();
        let camera = Camera::yaw_pitch(0.3, 0.15);
        let opts = RenderOptions::square(48);
        let f = factorize(&camera, vol.dims(), opts.width, opts.height);
        let parts = partition_1d(&vol, 2, f.axis).unwrap();
        let slab0 = SliceBounds::build(&parts[0], &tf, &f);
        let (plain, _) = render_intermediate(&parts[1], &tf, &camera, &opts);
        assert!(plain.count_non_blank() > 0, "slab 1 must have content");
        let (got, _) = render_intermediate_accel(&parts[1], &tf, &camera, &opts, &slab0);
        assert_eq!(plain, got);

        let side = Camera::yaw_pitch(1.4, 0.1);
        let fs = factorize(&side, vol.dims(), opts.width, opts.height);
        assert_ne!(fs.axis, f.axis);
        let whole = Subvolume::whole(vol);
        let wrong_axis = SliceBounds::build(&whole, &tf, &f);
        let (plain, _) = render_intermediate(&whole, &tf, &side, &opts);
        let (got, _) = render_intermediate_accel(&whole, &tf, &side, &opts, &wrong_axis);
        assert_eq!(plain, got);
    }

    #[test]
    #[should_panic(expected = "interval transparent set")]
    fn non_interval_tf_is_rejected() {
        // Transparent at zero AND in a mid-range window: two disjoint
        // transparent runs.
        let tf = TransferFunction::from_points(&[
            (0, 0.0, 0.0),
            (50, 0.3, 0.4),
            (100, 0.5, 0.0),
            (120, 0.5, 0.0),
            (200, 0.5, 0.5),
        ]);
        assert!(!tf.transparent_is_interval());
        let sub = Subvolume::whole(crate::volume::Volume::zeros(4, 4, 4));
        let opts = RenderOptions::square(16);
        let f = factorize(&Camera::front(), sub.full, 16, 16);
        let bounds = SliceBounds::build(&sub, &tf, &f);
        render_intermediate_accel(&sub, &tf, &Camera::front(), &opts, &bounds);
    }
}

#[cfg(test)]
mod accel_props {
    //! Property: the scanline-bounds render of a slab is byte-identical to
    //! the plain render, for every dataset, machine size, principal axis,
    //! termination threshold, frame shape and driver.
    use super::*;
    use crate::accel::SliceBounds;
    use crate::datasets::Dataset;
    use crate::partition::partition_1d;
    use proptest::prelude::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    prop_compose! {
        /// A camera whose principal axis is `axis` (jittered around that
        /// axis, either traversal direction), paired with the axis.
        pub(super) fn view()(
            axis in 0usize..3,
            u in -0.6f64..0.6,
            v in -0.6f64..0.6,
            back in any::<bool>(),
        ) -> (usize, Camera) {
            let turn = if back { PI } else { 0.0 };
            let camera = match axis {
                0 => Camera::yaw_pitch(FRAC_PI_2 + u + turn, v),
                1 => Camera::yaw_pitch(u * 5.0, (FRAC_PI_2 - 0.05 - v.abs()) * v.signum()),
                _ => Camera::yaw_pitch(u + turn, v),
            };
            (axis, camera)
        }
    }

    proptest! {
        #[test]
        fn accelerated_slabs_match_plain_render(
            dataset in 0usize..3,
            p in 1usize..=8,
            view in view(),
            et in prop_oneof![Just(0.98f32), Just(1.0f32)],
            width in 1usize..48,
            height in 1usize..48,
            parallel in any::<bool>(),
            seed in 0u64..1000,
        ) {
            let dataset = Dataset::PAPER[dataset];
            let (axis, camera) = view;
            let vol = dataset.generate(16, seed);
            let tf = dataset.transfer_function();
            let opts = RenderOptions {
                width,
                height,
                early_termination: et,
                parallel,
            };
            let f = factorize(&camera, vol.dims(), width, height);
            prop_assert_eq!(f.axis, axis, "{:?}", camera);
            for part in partition_1d(&vol, p, f.axis).unwrap() {
                let bounds = SliceBounds::build(&part, &tf, &f);
                let (plain, _) = render_intermediate(&part, &tf, &camera, &opts);
                let (fast, _) = render_intermediate_accel(&part, &tf, &camera, &opts, &bounds);
                prop_assert_eq!(
                    plain.pixels(),
                    fast.pixels(),
                    "{} p={} {:?} {:?} slab {:?}",
                    dataset.name(),
                    p,
                    camera,
                    opts,
                    part.offset
                );
            }
        }
    }
}

#[cfg(test)]
mod reference {
    //! The per-pixel bilinear sampler and row loop as they were before the
    //! row kernel hoisted them: `f64::floor`/`f64::round` and a
    //! bounds-checked 3-D lookup per tap. Plain [`super::render_intermediate`]
    //! shares the row kernel, so this is the kernel's oracle.
    use super::*;

    /// Bilinear scalar sample of slice `k` (global principal-axis index) at
    /// global in-slice coordinates `(gi, gj)`, reading 0 outside the subvolume.
    pub(super) fn slice_sample(
        sub: &Subvolume,
        f: &Factorization,
        gi: f64,
        gj: f64,
        k: usize,
    ) -> f64 {
        let off = [sub.offset.0, sub.offset.1, sub.offset.2];
        let li = gi - off[f.plane.0] as f64;
        let lj = gj - off[f.plane.1] as f64;
        let lk = k as isize - off[f.axis] as isize;
        let (i0, j0) = (li.floor(), lj.floor());
        let (fi, fj) = (li - i0, lj - j0);
        let (i0, j0) = (i0 as isize, j0 as isize);
        let mut acc = 0.0;
        for dj in 0..2 {
            for di in 0..2 {
                let w =
                    (if di == 0 { 1.0 - fi } else { fi }) * (if dj == 0 { 1.0 - fj } else { fj });
                if w > 0.0 {
                    let mut c = [0isize; 3];
                    c[f.plane.0] = i0 + di;
                    c[f.plane.1] = j0 + dj;
                    c[f.axis] = lk;
                    acc += w * sub.vol.at_or_zero(c[0], c[1], c[2]) as f64;
                }
            }
        }
        acc
    }

    /// The per-pixel row kernel [`super::composite_row`] replaced, kept as
    /// its oracle: every pixel samples slice `job` from scratch.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn composite_row(
        sub: &Subvolume,
        f: &Factorization,
        tf: &TransferFunction,
        opts: &RenderOptions,
        bounds: Option<&SliceBounds>,
        job: &SliceJob,
        iv: usize,
        row: &mut [GrayAlpha],
    ) {
        let gj = iv as f64 - job.v_off;
        // With bounds: narrow the pixel run to the opaque interval of
        // the two voxel rows this image row samples (conservative,
        // hence pixel-exact).
        let (riu0, riu1) = match bounds {
            None => (job.iu0, job.iu1),
            Some(b) => {
                let rb = b.row_bound(job.k, gj.floor() as isize);
                if rb.is_empty() {
                    return;
                }
                let lo = ((rb.lo as f64 + job.u_off).floor().max(job.iu0 as f64)) as usize;
                let hi = (((rb.hi as f64 + job.u_off).ceil()) as usize).min(job.iu1);
                if lo > hi {
                    return;
                }
                (lo, hi)
            }
        };
        for (iu, acc) in row.iter_mut().enumerate().take(riu1 + 1).skip(riu0) {
            if acc.a >= opts.early_termination {
                continue;
            }
            let gi = iu as f64 - job.u_off;
            let scalar = slice_sample(sub, f, gi, gj, job.k);
            let s8 = scalar.round().clamp(0.0, 255.0) as u8;
            if tf.is_transparent(s8) {
                continue;
            }
            let sample = tf.classify_premultiplied(s8);
            // Front-to-back: the accumulated pixel is nearer.
            *acc = acc.over(&sample);
        }
    }
}

#[cfg(test)]
mod kernel_props {
    //! Property: the row kernel renders every slab byte for byte like the
    //! per-pixel reference kernel, on every dataset, machine size,
    //! principal axis and traversal direction, termination threshold,
    //! frame shape and driver, with and without scanline bounds. Rounding
    //! a sample to its 8-bit class hides last-bit drift from the image,
    //! so the property also holds every raw sample of every slice row to
    //! the reference sampler's bits.
    use super::*;
    use crate::accel::SliceBounds;
    use crate::datasets::Dataset;
    use crate::partition::partition_1d;
    use proptest::prelude::*;

    fn bits(img: &Image<GrayAlpha>) -> Vec<(u32, u32)> {
        img.pixels()
            .iter()
            .map(|p| (p.v.to_bits(), p.a.to_bits()))
            .collect()
    }

    proptest! {
        #[test]
        fn row_kernel_matches_per_pixel_reference(
            dataset in 0usize..3,
            size in 8usize..=20,
            p in 1usize..=8,
            view in super::accel_props::view(),
            et in prop_oneof![Just(0.98f32), Just(1.0f32)],
            width in 1usize..48,
            height in 1usize..48,
            parallel in any::<bool>(),
            seed in 0u64..1000,
        ) {
            let dataset = Dataset::PAPER[dataset];
            let (axis, camera) = view;
            let vol = dataset.generate(size, seed);
            let tf = dataset.transfer_function();
            let serial = RenderOptions {
                width,
                height,
                early_termination: et,
                parallel: false,
            };
            let opts = serial.with_parallel(parallel);
            let f = factorize(&camera, vol.dims(), width, height);
            prop_assert_eq!(f.axis, axis, "{:?}", camera);
            for part in partition_1d(&vol, p, f.axis).unwrap() {
                for job in slice_jobs(&part, &f) {
                    for iv in job.iv0..=job.iv1 {
                        let gj = iv as f64 - job.v_off;
                        let taps = RowTaps::new(&part, &f, job.k, gj);
                        for iu in job.iu0..=job.iu1 {
                            let gi = iu as f64 - job.u_off;
                            let want = reference::slice_sample(&part, &f, gi, gj, job.k);
                            prop_assert_eq!(
                                taps.sample(gi).to_bits(),
                                want.to_bits(),
                                "{} {:?} slab {:?} k={} ({}, {})",
                                dataset.name(),
                                camera,
                                part.offset,
                                job.k,
                                iu,
                                iv
                            );
                        }
                    }
                }
                let bounds = SliceBounds::build(&part, &tf, &f);
                let (want, _) = render_intermediate_impl(
                    &part, &tf, &camera, &serial, None, reference::composite_row,
                );
                let (plain, _) = render_intermediate(&part, &tf, &camera, &opts);
                let (fast, _) = render_intermediate_accel(&part, &tf, &camera, &opts, &bounds);
                let want = bits(&want);
                let what = format!(
                    "{} p={p} {camera:?} {opts:?} slab {:?}",
                    dataset.name(),
                    part.offset
                );
                prop_assert_eq!(&bits(&plain), &want, "plain {}", what);
                prop_assert_eq!(&bits(&fast), &want, "bounded {}", what);
            }
        }
    }
}
