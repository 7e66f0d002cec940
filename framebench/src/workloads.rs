//! The four workloads, each driven by one caller in a closed loop: the
//! next request goes out only after the previous one has finished.
//!
//! Untraced runs time the program's own entry points. Traced runs follow
//! each program call with its decomposed replica (`crate::replica`) twice —
//! once with the `Observer` and timers, once without — and require the
//! traced replica's frame to be byte-identical to the program's.

use crate::host;
use crate::inputs::{Inputs, P};
use crate::replica::{self, compose_config, err, ms, timed, Frame, Replica, Sample};
use crate::stats::{frame_hash, median, same_bits, Fnv};
use rt_comm::FaultPlan;
use rt_compress::CodecKind;
use rt_core::exec::{Machine, ScratchPool, TransportKind};
use rt_core::method::Method;
use rt_core::tile::{run_plan_composition_pooled, ComposePlan};
use rt_imaging::GrayAlpha;
use rt_pvr::scene::{prepare_scene_screen, Scene};
use rt_pvr::{render_frame_pooled_on, PipelineConfig, StreamConfig, StreamSession};
use rt_render::camera::{factorize, Camera};
use rt_render::datasets::Dataset;
use rt_render::partition::partition_1d;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::time::Instant;

/// Tolerance of the schedule methods against the reference fold (the
/// pipeline tests' `approx_eq` bound); tile ownership must match exactly.
const TOLERANCE: f64 = 1e-3;

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Per-frame times: call durations, or stream frame gaps for `orbit`.
    pub frame_ms: Vec<f64>,
    /// Set-up times (first call into the program → first result).
    pub setup_s: Vec<f64>,
    /// Peak resident set of each unit of work (one set-up, one frame), by
    /// phase, for a fixed number of units per phase.
    pub rss_mb: BTreeMap<&'static str, Vec<f64>>,
    pub gate: Gate,
    /// Per-layer values of the traced run, one entry per traced call.
    pub layers: BTreeMap<&'static str, Vec<f64>>,
}

impl Outcome {
    /// The peak resident set: per phase the median over its units, then
    /// the larger phase, so memory moved into set-up still shows.
    pub fn peak_rss_mb(&self) -> f64 {
        self.rss_mb.values().map(|v| median(v)).fold(0.0, f64::max)
    }

    /// Close a unit of work whose peak-RSS mark was reset at its start.
    /// Only the first `limit` units of a phase count, so the figure does
    /// not depend on how many frames a run's speed fits in.
    fn rss_unit(&mut self, phase: &'static str, limit: usize) {
        let units = self.rss_mb.entry(phase).or_default();
        if units.len() < limit {
            units.push(host::peak_rss_mb());
        }
        host::reset_peak_rss();
    }

    fn add(&mut self, sample: &Sample) {
        for (k, v) in sample {
            self.layers.entry(k).or_default().push(*v);
        }
    }

    fn put(&mut self, key: &'static str, v: f64) {
        self.layers.entry(key).or_default().push(v);
    }

    /// Record one traced replica pair against the program's frame time.
    fn replica_pair(
        &mut self,
        traced: Replica,
        untraced: &Replica,
        program: &Frame,
        program_ms: f64,
    ) {
        self.gate.replica(same_bits(&traced.frame, program));
        self.add(&traced.sample);
        self.put("pipeline.accounted", traced.accounted_ms / traced.wall_ms);
        self.put("pipeline.residual_ms", traced.wall_ms - traced.accounted_ms);
        self.put("pipeline.wall_ms", traced.wall_ms);
        self.put("trace.overhead", traced.wall_ms / untraced.wall_ms);
        if program_ms > 0.0 {
            self.put("stream.overlap", untraced.wall_ms / program_ms);
        }
    }
}

/// The correctness gate: every frame against its input's oracle, every
/// frame of one input identical to the first, every traced replica
/// byte-identical to the program's frame.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    first: BTreeMap<String, u64>,
    pub replica_mismatches: u64,
    pub notes: Vec<String>,
}

impl Gate {
    fn check(&mut self, key: &str, frame: Result<&Frame, &String>, oracle: &Frame, exact: bool) {
        self.attempted += 1;
        let frame = match frame {
            Ok(frame) => frame,
            Err(e) => return self.fail(format!("{key}: {e}")),
        };
        let ok = if exact {
            same_bits(frame, oracle)
        } else {
            frame.approx_eq(oracle, TOLERANCE)
        };
        if !ok {
            return self.fail(format!("{key}: frame differs from the oracle"));
        }
        let h = frame_hash(frame);
        if *self.first.entry(key.to_string()).or_insert(h) != h {
            self.fail(format!(
                "{key}: frame differs from this input's first frame"
            ));
        }
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    fn replica(&mut self, identical: bool) {
        if !identical {
            self.replica_mismatches += 1;
            self.fail("traced replica frame differs from the program's frame".into());
        }
    }

    /// One hash over every input's frame, in input order.
    pub fn frame_hash(&self) -> u64 {
        let mut h = Fnv::new();
        for (key, v) in &self.first {
            h.write(key.as_bytes());
            h.write_u64(*v);
        }
        h.finish()
    }
}

/// `transport.setup_ms`: an empty `Machine` run of `P` ranks.
fn empty_machine_ms(transport: TransportKind) -> f64 {
    let config = compose_config(CodecKind::Raw, transport);
    timed(|| Machine::build(P, &config, FaultPlan::none(), None).run(|_| ())).1
}

/// `orbit`: quarter orbits of the Head dataset streamed through one
/// `StreamSession` client, window 2, back to back until time is up. Frame
/// times are the gaps between emitted frames; each stream's first frame
/// is a set-up sample (it includes generating the volume).
pub fn orbit(inputs: &Inputs, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let size = inputs.size;
    let base = inputs.pipeline(Dataset::Head, Camera::front());
    let config = StreamConfig::new(base).with_window(2);
    let frames: Vec<PipelineConfig> = rt_pvr::orbit_cameras(&inputs.orbit)
        .into_iter()
        .map(|(_, camera)| PipelineConfig { camera, ..base })
        .collect();
    let volume = base.dataset.generate(size.volume, base.seed);
    let tf = base.dataset.transfer_function();
    let mut by_axis = BTreeMap::new();
    let mut oracles = Vec::new();
    for frame in &frames {
        let opts = &frame.render;
        let axis = factorize(&frame.camera, volume.dims(), opts.width, opts.height).axis;
        if let Entry::Vacant(slot) = by_axis.entry(axis) {
            slot.insert(partition_1d(&volume, P, axis).map_err(err)?);
        }
        oracles.push(replica::oracle(&by_axis[&axis], &tf, &frame.camera, opts)?);
    }
    drop((volume, by_axis));

    let mut out = Outcome::default();
    let session = StreamSession::new(P);
    let client = session.open();
    let start = Instant::now();
    let mut kept: Vec<(usize, Frame, f64)> = Vec::new();
    // A traced run decomposes one stream's frames afterwards.
    while out.setup_s.is_empty() || (!traced && start.elapsed().as_secs_f64() < seconds) {
        host::reset_peak_rss();
        let mut prev = Instant::now();
        for (i, item) in client.stream_orbit(&config, &inputs.orbit).enumerate() {
            let now = Instant::now();
            let gap = ms(now - prev);
            prev = now;
            if i == 0 {
                out.setup_s.push(gap / 1e3);
                out.rss_unit("setup", 2);
            } else {
                out.frame_ms.push(gap);
                out.rss_unit("frame", 2 * (frames.len() - 1));
            }
            let oracle = oracles.get(i).ok_or("the stream emitted an extra frame")?;
            let frame = item.map(|f| f.frame).map_err(err);
            out.gate
                .check(&format!("orbit/{i}"), frame.as_ref(), oracle, false);
            if let (true, Ok(frame)) = (traced, frame) {
                kept.push((i, frame, if i == 0 { 0.0 } else { gap }));
            }
        }
    }

    if traced {
        // The stream generates once and partitions once per principal
        // axis before its first frame; the replica does the same, then
        // decomposes every frame the stream emitted.
        let (volume, generate_ms) = timed(|| base.dataset.generate(size.volume, base.seed));
        out.put("prepare.generate_ms", generate_ms);
        out.put(
            "render.serial_frame_ms",
            replica::serial_frame_ms(&volume, &frames[0]),
        );
        let mut by_axis = BTreeMap::new();
        let pool = ScratchPool::new();
        for (i, program, gap) in &kept {
            let frame = &frames[*i];
            let opts = &frame.render;
            let f = factorize(&frame.camera, volume.dims(), opts.width, opts.height);
            if let Entry::Vacant(slot) = by_axis.entry(f.axis) {
                let (parts, partition_ms) = timed(|| partition_1d(&volume, P, f.axis));
                let parts = parts.map_err(err)?;
                out.put("prepare.partition_ms", partition_ms);
                let mut s = Sample::new();
                replica::bounds(&parts, &tf, &f, &mut s);
                out.add(&s);
                slot.insert(parts);
            }
            let parts = &by_axis[&f.axis];
            let run = |traced| {
                replica::slab_frame(parts, &tf, frame, TransportKind::InProc, &pool, traced)
            };
            let traced_replica = run(true)?;
            let untraced_replica = run(false)?;
            out.replica_pair(traced_replica, &untraced_replica, program, *gap);
            out.put(
                "transport.setup_ms",
                empty_machine_ms(TransportKind::InProc),
            );
        }
    }
    Ok(out)
}

/// The `views` frames run over loopback TCP: with `orbit` in-process, the
/// two timed workloads cover both transports. Frames are byte-identical on
/// either.
const VIEWS_TRANSPORT: TransportKind = TransportKind::TcpLoopback;

/// `views`: independent single frames through the serial pipeline, each
/// regenerating and re-partitioning its volume, cycling the seeded views.
pub fn views(inputs: &Inputs, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let configs: Vec<PipelineConfig> = inputs
        .views
        .iter()
        .map(|v| inputs.pipeline(v.dataset, v.camera))
        .collect();
    let oracles = configs
        .iter()
        .map(replica::pipeline_oracle)
        .collect::<Result<Vec<_>, _>>()?;
    let call = |config: &PipelineConfig, pool: &ScratchPool<GrayAlpha>| {
        host::reset_peak_rss();
        let t0 = Instant::now();
        let result = render_frame_pooled_on(P, config, FaultPlan::none(), pool, VIEWS_TRANSPORT);
        let t = ms(t0.elapsed());
        (result.map(|o| o.frame).map_err(err), t)
    };

    let mut out = Outcome::default();
    // Set-up: the first frame from a cold scratch pool, several times.
    for k in 0..inputs.size.setups {
        let i = k % configs.len();
        let (frame, t) = call(&configs[i], &ScratchPool::new());
        out.setup_s.push(t / 1e3);
        out.rss_unit("setup", usize::MAX);
        out.gate
            .check(&format!("view/{i}"), frame.as_ref(), &oracles[i], false);
    }
    if traced {
        let c = &configs[0];
        let volume = c.dataset.generate(c.volume_size, c.seed);
        out.put(
            "render.serial_frame_ms",
            replica::serial_frame_ms(&volume, c),
        );
    }
    let pool = ScratchPool::new();
    let replica_pool = ScratchPool::new();
    let start = Instant::now();
    let mut n = 0;
    // Whole cycles only, so every view weighs the same in every run.
    while n % configs.len() != 0 || n == 0 || start.elapsed().as_secs_f64() < seconds {
        let i = n % configs.len();
        let (frame, t) = call(&configs[i], &pool);
        out.frame_ms.push(t);
        out.rss_unit("frame", 3 * configs.len());
        out.gate
            .check(&format!("view/{i}"), frame.as_ref(), &oracles[i], false);
        if let (true, Ok(program)) = (traced, &frame) {
            let run =
                |traced| replica::views_frame(&configs[i], VIEWS_TRANSPORT, &replica_pool, traced);
            let traced_replica = run(true)?;
            let untraced_replica = run(false)?;
            out.replica_pair(traced_replica, &untraced_replica, program, t);
            out.put("transport.setup_ms", empty_machine_ms(VIEWS_TRANSPORT));
        }
        n += 1;
    }
    Ok(out)
}

/// The compose workloads' inputs: three paper datasets rendered to
/// screen-space partials once, and the bench line-up compiled once.
struct Scenes {
    scenes: Vec<Scene>,
    plans: Vec<(Method, ComposePlan)>,
}

const CODECS: [CodecKind; 2] = [CodecKind::Raw, CodecKind::Trle];

/// One composition of the cycle: scene × line-up method × codec.
struct Call {
    scene: usize,
    plan: usize,
    codec: CodecKind,
}

impl Scenes {
    fn prepare(inputs: &Inputs) -> Result<Scenes, String> {
        let scenes = Dataset::PAPER
            .iter()
            .map(|&d| {
                let c = inputs.pipeline(d, inputs.scene_camera);
                prepare_scene_screen(P, d, c.volume_size, c.seed, &c.camera, &c.render)
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        let frame_px = inputs.size.frame;
        let plans = Method::bench_lineup()
            .into_iter()
            .map(|m| {
                let plan = m.plan(P, frame_px, frame_px).map_err(err)?;
                plan.verify().map_err(err)?;
                Ok((m, plan))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Scenes { scenes, plans })
    }

    /// Calls in one full cycle of scenes × methods × codecs.
    fn cycle(&self) -> usize {
        self.scenes.len() * self.plans.len() * CODECS.len()
    }

    /// The `i`-th call of the cycle; consecutive calls change scene first,
    /// then method, then codec.
    fn nth(&self, i: usize) -> Call {
        let (ns, np) = (self.scenes.len(), self.plans.len());
        Call {
            scene: i % ns,
            plan: (i / ns) % np,
            codec: CODECS[(i / (ns * np)) % CODECS.len()],
        }
    }

    fn key(&self, c: &Call) -> String {
        let codec = if c.codec == CodecKind::Raw {
            "raw"
        } else {
            "trle"
        };
        format!(
            "{}/{:?}/{codec}",
            self.scenes[c.scene].dataset.name(),
            self.plans[c.plan].0
        )
    }

    /// Tile ownership folds exactly like the reference; the schedule
    /// methods differ from it in float association.
    fn exact(&self, c: &Call) -> bool {
        matches!(self.plans[c.plan].0, Method::TileOwner { .. })
    }
}

/// `compose` / `compose_tcp`: one `run_plan_composition_pooled` per call
/// over the set-up's partials, cycling scenes × line-up × {raw, trle}.
pub fn compose(
    inputs: &Inputs,
    seconds: f64,
    traced: bool,
    transport: TransportKind,
) -> Result<Outcome, String> {
    let pool = ScratchPool::new();
    let call = |s: &Scenes, c: &Call| {
        let config = compose_config(c.codec, transport);
        let partials = s.scenes[c.scene].partials.clone();
        let t0 = Instant::now();
        let (results, _) =
            run_plan_composition_pooled(&s.plans[c.plan].1, partials, &config, &pool);
        let t = ms(t0.elapsed());
        let mut frame = Err("no rank produced the frame".to_string());
        for r in results {
            match r {
                Ok(out) => {
                    if let Some(img) = out.frame {
                        frame = Ok(img);
                    }
                }
                Err(e) => {
                    frame = Err(e.to_string());
                    break;
                }
            }
        }
        (frame, t)
    };

    let mut out = Outcome::default();
    // Set-up: render the scenes, compile the line-up, first composition.
    let mut set: Option<Scenes> = None;
    let mut first = Vec::new();
    for _ in 0..inputs.size.setups {
        drop(set.take()); // free the previous set-up's scenes first
        host::reset_peak_rss();
        let t0 = Instant::now();
        let s = Scenes::prepare(inputs)?;
        let (frame, _) = call(&s, &s.nth(0));
        out.setup_s.push(t0.elapsed().as_secs_f64());
        out.rss_unit("setup", usize::MAX);
        first.push(frame);
        set = Some(s);
    }
    let s = set.ok_or("no set-up ran")?;
    let oracles = s
        .scenes
        .iter()
        .map(|sc| sc.reference().map_err(err))
        .collect::<Result<Vec<_>, _>>()?;
    let c0 = s.nth(0);
    for frame in &first {
        out.gate.check(
            &s.key(&c0),
            frame.as_ref(),
            &oracles[c0.scene],
            s.exact(&c0),
        );
    }
    let frame_px = inputs.size.frame;
    if traced {
        for scene in &s.scenes {
            let config = inputs.pipeline(scene.dataset, inputs.scene_camera);
            out.add(&replica::scene_setup(&config, &scene.partials)?);
        }
        let config = inputs.pipeline(s.scenes[0].dataset, inputs.scene_camera);
        let volume = config.dataset.generate(config.volume_size, config.seed);
        out.put(
            "render.serial_frame_ms",
            replica::serial_frame_ms(&volume, &config),
        );
    }
    let replica_pool = ScratchPool::new();
    let start = Instant::now();
    let mut n = 0;
    // Whole cycles only, so every call of the mix weighs the same.
    while n % s.cycle() != 0 || n == 0 || start.elapsed().as_secs_f64() < seconds {
        let c = s.nth(n);
        host::reset_peak_rss();
        let (frame, t) = call(&s, &c);
        out.frame_ms.push(t);
        out.rss_unit("call", 8 * s.cycle());
        out.gate
            .check(&s.key(&c), frame.as_ref(), &oracles[c.scene], s.exact(&c));
        if let (true, Ok(program)) = (traced, &frame) {
            // The program compiles its plans once in set-up; the traced
            // run times that compilation per call.
            let (method, plan) = &s.plans[c.plan];
            let (planned, plan_ms) = timed(|| method.plan(P, frame_px, frame_px));
            planned.map_err(err)?;
            out.put("pipeline.plan_ms", plan_ms);
            let config = compose_config(c.codec, transport);
            let partials = &s.scenes[c.scene].partials;
            let run = |traced| {
                replica::compose_frame(plan, partials.clone(), &config, &replica_pool, traced)
            };
            let traced_replica = run(true)?;
            let untraced_replica = run(false)?;
            out.replica_pair(traced_replica, &untraced_replica, program, t);
            out.put("transport.setup_ms", empty_machine_ms(transport));
        }
        n += 1;
    }
    Ok(out)
}
