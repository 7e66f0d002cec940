//! The decomposed frame: the program's frame rebuilt call by call from the
//! layers' public functions, each call timed from here, plus the oracle the
//! correctness gate compares against.
//!
//! A replica frame calls `generate`, `factorize`, `partition_1d`,
//! `depth_order`/`permute_plan`, `render_intermediate` per slab, then
//! `Machine::build` (with an `Observer` when traced) and `compose_plan`, and
//! finally `warp_to_screen` — the order of `rt-pvr`'s pipeline — so its
//! frame is byte-identical to the program's when it measured the same work.
//! Its wall time ends when the machine run returns; everything derived from
//! the run (trace replay, span sums) is computed after that.

use crate::host;
use crate::inputs::P;
use crate::stats::same_bits;
use rt_comm::{ComputeKind, CostModel, FaultPlan};
use rt_compress::CodecKind;
use rt_core::exec::{ComposeConfig, Machine, ScratchPool, TransportKind};
use rt_core::tile::{compose_plan, ComposePlan};
use rt_imaging::image::reference_composite;
use rt_imaging::{GrayAlpha, Image};
use rt_obs::{Observer, Phase};
use rt_pvr::permute::permute_plan;
use rt_pvr::PipelineConfig;
use rt_render::accel::SliceBounds;
use rt_render::camera::{factorize, Camera, Factorization};
use rt_render::partition::{depth_order, partition_1d, Subvolume};
use rt_render::shearwarp::{render, render_intermediate, warp_to_screen, RenderOptions};
use rt_render::tf::TransferFunction;
use rt_render::volume::Volume;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-layer values of one traced call, by metric name.
pub type Sample = BTreeMap<&'static str, f64>;

pub type Frame = Image<GrayAlpha>;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms(t.elapsed()))
}

/// A layer's error as the benchmark reports it.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The compose settings every machine of a run shares.
pub fn compose_config(codec: CodecKind, transport: TransportKind) -> ComposeConfig {
    ComposeConfig::default()
        .with_codec(codec)
        .with_root(0)
        .with_transport(transport)
}

/// One replica frame.
pub struct Replica {
    pub frame: Frame,
    /// Wall time of the frame as the replica ran it.
    pub wall_ms: f64,
    /// The part of `wall_ms` covered by timed layer calls on the frame's
    /// critical path.
    pub accounted_ms: f64,
    pub sample: Sample,
}

/// What each rank reports from the machine run.
struct RankRec {
    frame: Option<Frame>,
    enter: Instant,
    render: Option<(Instant, Instant)>,
    nonblank: usize,
    compose: (Instant, Instant),
    warp: Option<(Instant, Instant)>,
    sockets: usize,
}

/// A rank's input: its slab to render, or a pre-rendered partial.
enum Local<'a> {
    Render {
        parts: &'a [Subvolume],
        tf: &'a TransferFunction,
        config: &'a PipelineConfig,
    },
    Partials(Mutex<Vec<Option<Frame>>>),
}

/// The machine part of a frame, as [`machine_frame`] ran it.
struct MachineRun {
    frame: Frame,
    accounted_ms: f64,
    /// When `Machine::run` returned.
    end: Instant,
}

/// `Machine::build` + `run` of one frame: render (when given slabs),
/// barrier, `compose_plan`, and the warp at the root when `warp` is given.
fn machine_frame(
    plan: &ComposePlan,
    config: &ComposeConfig,
    local: Local<'_>,
    warp: Option<&Factorization>,
    pool: &ScratchPool<GrayAlpha>,
    traced: bool,
    s: &mut Sample,
) -> Result<MachineRun, String> {
    let observer = traced.then(|| Arc::new(Observer::new()));
    let (mc, build_ms) = timed(|| Machine::build(P, config, FaultPlan::none(), observer.clone()));
    let run0 = Instant::now();
    let (results, trace) = mc.run(|ctx| -> Result<RankRec, String> {
        let enter = Instant::now();
        let rank = ctx.rank();
        let sockets = if traced && rank == 0 {
            host::open_sockets()
        } else {
            0
        };
        let (partial, render, nonblank, opts) = match &local {
            Local::Render { parts, tf, config } => {
                let sub = &parts[rank];
                ctx.mark("render:start");
                let r0 = Instant::now();
                let (partial, _) = render_intermediate(sub, tf, &config.camera, &config.render);
                let r1 = Instant::now();
                ctx.compute(ComputeKind::Render, sub.vol.len() as u64);
                ctx.mark("render:end");
                let nonblank = if traced { partial.count_non_blank() } else { 0 };
                ctx.barrier().map_err(err)?;
                (partial, Some((r0, r1)), nonblank, Some(&config.render))
            }
            Local::Partials(cell) => {
                let partial = cell.lock().unwrap_or_else(|e| e.into_inner())[rank]
                    .take()
                    .ok_or_else(|| format!("rank {rank} has no partial"))?;
                (partial, None, 0, None)
            }
        };
        let mut scratch = pool.checkout(rank);
        let c0 = Instant::now();
        let out = compose_plan(ctx, plan, partial, config, &mut scratch);
        let c1 = Instant::now();
        pool.checkin(rank, scratch);
        let out = out.map_err(err)?;
        let (frame, warp_span) = match (out.frame, warp.zip(opts)) {
            (Some(inter), Some((f, opts))) => {
                ctx.compute(ComputeKind::Render, (opts.width * opts.height) as u64);
                let w0 = Instant::now();
                let screen = warp_to_screen(&inter, f, opts);
                let w1 = Instant::now();
                ctx.mark("warp:end");
                (Some(screen), Some((w0, w1)))
            }
            (frame, _) => (frame, None),
        };
        Ok(RankRec {
            frame,
            enter,
            render,
            nonblank,
            compose: (c0, c1),
            warp: warp_span,
            sockets,
        })
    });
    let end = Instant::now();
    let mut recs = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let root = recs
        .iter()
        .position(|r| r.frame.is_some())
        .ok_or("no rank produced the frame")?;

    // The critical path: build, start of the first rank, the slowest
    // slab's render, the root's composition, the root's warp.
    let first_enter = recs.iter().map(|r| r.enter).min().unwrap_or(run0);
    let spawn_ms = ms(first_enter - run0);
    let compose_ms = ms(recs[root].compose.1 - recs[root].compose.0);
    let warp_ms = recs[root].warp.map_or(0.0, |(a, b)| ms(b - a));
    let mut accounted_ms = build_ms + spawn_ms + compose_ms + warp_ms;
    let renders: Vec<(Instant, Instant)> = recs.iter().filter_map(|r| r.render).collect();
    if let Some(last_end) = renders.iter().map(|r| r.1).max() {
        let slab_ms: Vec<f64> = renders.iter().map(|(a, b)| ms(*b - *a)).collect();
        let critical_ms = ms(last_end - first_enter);
        accounted_ms += critical_ms;
        s.insert("render.slab_busy_ms", slab_ms.iter().sum());
        s.insert(
            "render.slab_max_ms",
            slab_ms.iter().copied().fold(0.0, f64::max),
        );
        s.insert("render.critical_path_ms", critical_ms);
        let nonblank: usize = recs.iter().map(|r| r.nonblank).sum();
        s.insert("render.nonblank_px", nonblank as f64);
        s.insert("warp.ms", warp_ms);
    }
    s.insert("transport.build_ms", build_ms);
    s.insert("transport.spawn_ms", spawn_ms);
    s.insert("transport.sockets", recs[0].sockets as f64);
    s.insert("compose.wall_ms", compose_ms);
    s.insert("compose.wire_bytes", trace.bytes_sent() as f64);
    s.insert("compose.messages", trace.message_count() as f64);
    let sp2 = rt_comm::replay(&trace, &CostModel::SP2)
        .ok()
        .and_then(|report| report.phase("compose:start", "gather:end"))
        .unwrap_or_default();
    s.insert("compose.sp2_ms", sp2 * 1e3);
    if let Some(observer) = observer {
        observe(&observer, &recs, s);
    }
    let frame = recs[root]
        .frame
        .take()
        .ok_or("no rank produced the frame")?;
    Ok(MachineRun {
        frame,
        accounted_ms,
        end,
    })
}

/// The `Observer`'s wall-clock spans inside each rank's `compose_plan`
/// (render-barrier waits excluded), summed over ranks, and its counters.
fn observe(observer: &Observer, recs: &[RankRec], s: &mut Sample) {
    let origin = observer.origin();
    let timelines = observer.timelines();
    for (phase, key) in [
        (Phase::Encode, "compose.encode_ms"),
        (Phase::Send, "compose.send_ms"),
        (Phase::Wait, "compose.wait_ms"),
        (Phase::Decode, "compose.decode_ms"),
        (Phase::Over, "compose.over_ms"),
        (Phase::Flush, "compose.flush_ms"),
    ] {
        let mut total = 0.0;
        for tl in &timelines {
            let Some(rec) = recs.get(tl.rank) else {
                continue;
            };
            let from = rec
                .compose
                .0
                .saturating_duration_since(origin)
                .as_secs_f64();
            total += tl
                .spans
                .iter()
                .filter(|sp| sp.phase == phase && sp.start >= from)
                .map(|sp| sp.dur)
                .sum::<f64>();
        }
        s.insert(key, total * 1e3);
    }
    let c = observer.counters_total();
    let merged = c.non_blank_merged as f64;
    let attempts = merged + c.blank_skipped as f64;
    s.insert("compose.merge_useful", merged / attempts.max(1.0));
    let wide = c.wide_kernel_pixels as f64;
    let kernel_px = wide + c.scalar_kernel_pixels as f64;
    s.insert("compose.wide_share", wide / kernel_px.max(1.0));
    s.insert("compose.pool_misses", c.pool_misses as f64);
    s.insert("transport.retransmits", c.retransmits as f64);
    let wire: u64 = c.wire_bytes.iter().map(|(_, b)| b).sum();
    s.insert(
        "transport.overhead_bytes",
        c.bytes_sent as f64 - wire as f64,
    );
}

/// One full frame from already-partitioned slabs: `factorize`, plan,
/// machine run with per-slab render, composition and warp. The wall time
/// starts at the factorization.
pub fn slab_frame(
    parts: &[Subvolume],
    tf: &TransferFunction,
    config: &PipelineConfig,
    transport: TransportKind,
    pool: &ScratchPool<GrayAlpha>,
    traced: bool,
) -> Result<Replica, String> {
    let t0 = Instant::now();
    let mut s = Sample::new();
    let opts = &config.render;
    let f = factorize(&config.camera, parts[0].full, opts.width, opts.height);
    let (plan, plan_ms) = timed(|| -> Result<ComposePlan, String> {
        let rank_of_depth = depth_order(parts, &f);
        let depth_plan = config
            .method
            .plan(P, f.inter_size.0, f.inter_size.1)
            .map_err(err)?;
        depth_plan.verify().map_err(err)?;
        permute_plan(&depth_plan, &rank_of_depth).map_err(err)
    });
    let plan = plan?;
    s.insert("pipeline.plan_ms", plan_ms);
    let local = Local::Render { parts, tf, config };
    let compose = compose_config(config.codec, transport);
    let run = machine_frame(&plan, &compose, local, Some(&f), pool, traced, &mut s)?;
    let voxels: usize = parts.iter().map(|p| p.vol.len()).sum();
    s.insert("render.voxels", voxels as f64);
    Ok(Replica {
        frame: run.frame,
        wall_ms: ms(run.end - t0),
        accounted_ms: plan_ms + run.accounted_ms,
        sample: s,
    })
}

/// A `views` replica: `generate` and `partition_1d` inside the frame, then
/// [`slab_frame`]; the coherence bounds are built after the frame.
pub fn views_frame(
    config: &PipelineConfig,
    transport: TransportKind,
    pool: &ScratchPool<GrayAlpha>,
    traced: bool,
) -> Result<Replica, String> {
    let t0 = Instant::now();
    let (volume, generate_ms) = timed(|| config.dataset.generate(config.volume_size, config.seed));
    let tf = config.dataset.transfer_function();
    let opts = &config.render;
    let f = factorize(&config.camera, volume.dims(), opts.width, opts.height);
    let (parts, partition_ms) = timed(|| partition_1d(&volume, P, f.axis));
    let parts = parts.map_err(err)?;
    let prepared_ms = ms(t0.elapsed());
    let mut r = slab_frame(&parts, &tf, config, transport, pool, traced)?;
    r.wall_ms += prepared_ms;
    r.accounted_ms += generate_ms + partition_ms;
    r.sample.insert("prepare.generate_ms", generate_ms);
    r.sample.insert("prepare.partition_ms", partition_ms);
    bounds(&parts, &tf, &f, &mut r.sample);
    Ok(r)
}

/// A compose-only replica over pre-rendered partials: `Machine::build` and
/// `compose_plan` on every rank; the wall time is the machine's.
pub fn compose_frame(
    plan: &ComposePlan,
    partials: Vec<Frame>,
    config: &ComposeConfig,
    pool: &ScratchPool<GrayAlpha>,
    traced: bool,
) -> Result<Replica, String> {
    let mut s = Sample::new();
    let cell = Mutex::new(partials.into_iter().map(Some).collect());
    let t0 = Instant::now();
    let local = Local::Partials(cell);
    let run = machine_frame(plan, config, local, None, pool, traced, &mut s)?;
    Ok(Replica {
        frame: run.frame,
        wall_ms: ms(run.end - t0),
        accounted_ms: run.accounted_ms,
        sample: s,
    })
}

/// `SliceBounds::build` per slab: its cost and the share of voxels inside
/// the bounds (the ceiling of the coherence-acceleration gain).
pub fn bounds(parts: &[Subvolume], tf: &TransferFunction, f: &Factorization, s: &mut Sample) {
    let (opaque, bounds_ms) = timed(|| {
        parts
            .iter()
            .map(|sub| SliceBounds::build(sub, tf, f).opaque_voxels)
            .sum::<usize>()
    });
    let voxels: usize = parts.iter().map(|p| p.vol.len()).sum();
    s.insert("prepare.bounds_ms", bounds_ms);
    s.insert("render.occupancy", opaque as f64 / voxels.max(1) as f64);
}

/// Unaccelerated `render_intermediate` of every slab, one thread per slab,
/// with each call's duration.
fn render_slabs(
    parts: &[Subvolume],
    tf: &TransferFunction,
    camera: &Camera,
    opts: &RenderOptions,
) -> Vec<(Frame, f64)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .iter()
            .map(|sub| scope.spawn(move || timed(|| render_intermediate(sub, tf, camera, opts).0)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("slab render thread panicked"))
            .collect()
    })
}

/// The correctness oracle of a slab-rendered frame: per-slab
/// `render_intermediate` → `reference_composite` in depth order →
/// `warp_to_screen`.
pub fn oracle(
    parts: &[Subvolume],
    tf: &TransferFunction,
    camera: &Camera,
    opts: &RenderOptions,
) -> Result<Frame, String> {
    let f = factorize(camera, parts[0].full, opts.width, opts.height);
    let mut partials: Vec<Option<Frame>> = render_slabs(parts, tf, camera, opts)
        .into_iter()
        .map(|(img, _)| Some(img))
        .collect();
    let ordered: Vec<Frame> = depth_order(parts, &f)
        .into_iter()
        .map(|i| partials[i].take().expect("depth order is a permutation"))
        .collect();
    let inter = reference_composite(&ordered).map_err(err)?;
    Ok(warp_to_screen(&inter, &f, opts))
}

/// The oracle of one pipeline frame, generating and partitioning its volume.
pub fn pipeline_oracle(config: &PipelineConfig) -> Result<Frame, String> {
    let volume = config.dataset.generate(config.volume_size, config.seed);
    let opts = &config.render;
    let f = factorize(&config.camera, volume.dims(), opts.width, opts.height);
    let parts = partition_1d(&volume, P, f.axis).map_err(err)?;
    oracle(
        &parts,
        &config.dataset.transfer_function(),
        &config.camera,
        opts,
    )
}

/// The decomposed set-up of a screen-space scene (`prepare_scene_screen`
/// with `config`'s dataset, volume and camera): generate, partition,
/// per-slab render, per-partial warp. Errors unless its partials are
/// byte-identical to the program's `scene`.
pub fn scene_setup(config: &PipelineConfig, scene: &[Frame]) -> Result<Sample, String> {
    let mut s = Sample::new();
    let dataset = config.dataset;
    let opts = &config.render;
    let (volume, generate_ms) = timed(|| dataset.generate(config.volume_size, config.seed));
    let tf = dataset.transfer_function();
    let f = factorize(&config.camera, volume.dims(), opts.width, opts.height);
    let (parts, partition_ms) = timed(|| partition_1d(&volume, P, f.axis));
    let parts = parts.map_err(err)?;
    let (slabs, critical_ms) = timed(|| render_slabs(&parts, &tf, &config.camera, opts));
    let slab_ms: Vec<f64> = slabs.iter().map(|(_, t)| *t).collect();
    let nonblank: usize = slabs.iter().map(|(img, _)| img.count_non_blank()).sum();
    let mut warp_ms = 0.0;
    for (d, &i) in depth_order(&parts, &f).iter().enumerate() {
        let (screen, t) = timed(|| warp_to_screen(&slabs[i].0, &f, opts));
        warp_ms += t;
        if !scene.get(d).is_some_and(|want| same_bits(&screen, want)) {
            return Err(format!(
                "{}: set-up replica partial {d} differs",
                dataset.name()
            ));
        }
    }
    s.insert("prepare.generate_ms", generate_ms);
    s.insert("prepare.partition_ms", partition_ms);
    s.insert("render.slab_busy_ms", slab_ms.iter().sum());
    s.insert(
        "render.slab_max_ms",
        slab_ms.iter().copied().fold(0.0, f64::max),
    );
    s.insert("render.critical_path_ms", critical_ms);
    let voxels: usize = parts.iter().map(|p| p.vol.len()).sum();
    s.insert("render.voxels", voxels as f64);
    s.insert("render.nonblank_px", nonblank as f64);
    s.insert("warp.ms", warp_ms);
    bounds(&parts, &tf, &f, &mut s);
    Ok(s)
}

/// The P=1 reference: `shearwarp::render` of the whole volume (one
/// intermediate pass plus the warp) on one thread.
pub fn serial_frame_ms(volume: &Volume, config: &PipelineConfig) -> f64 {
    let whole = Subvolume::whole(volume.clone());
    let tf = config.dataset.transfer_function();
    timed(|| render(&whole, &tf, &config.camera, &config.render)).1
}
