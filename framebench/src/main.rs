//! End-to-end benchmark of one paper-size frame (256³ volume, 512² image,
//! P=8 ranks), with per-layer attribution from a separate traced run.
//!
//! ```text
//! framebench --workload <orbit|views|compose|compose_tcp> --seed N
//!            --seconds S --trace <0|1> [--smoke]
//! ```
//!
//! `--trace 0` times the program's entry points and reports the end-to-end
//! metrics; `--trace 1` decomposes each frame into the layers' public calls
//! and reports the per-layer metrics. Both check every frame against an
//! oracle. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; the line before it
//! (`framebench-detail`) carries the host fingerprint, tail percentile,
//! frame hash and error rate. `--smoke` shrinks the frame to a 24³ volume
//! and a 40² image. `registry.json` beside this package records why each
//! workload exists and which end-to-end metric each layer metric should
//! move.

mod host;
mod inputs;
mod replica;
mod stats;
mod workloads;

use inputs::{Inputs, Size, P};
use rt_core::exec::TransportKind;
use serde::Value;
use stats::{median, tail};
use workloads::Outcome;

/// The end-to-end metrics, with their units.
const END_TO_END: [(&str, &str); 5] = [
    ("frames_per_s", "1/s"),
    ("frame_ms_p50", "ms"),
    ("frame_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of the traced run, with their units.
const PER_LAYER: [(&str, &str); 36] = [
    ("prepare.generate_ms", "ms"),
    ("prepare.partition_ms", "ms"),
    ("prepare.bounds_ms", "ms"),
    ("render.occupancy", "ratio"),
    ("render.slab_busy_ms", "ms"),
    ("render.slab_max_ms", "ms"),
    ("render.critical_path_ms", "ms"),
    ("render.voxels", "count"),
    ("render.nonblank_px", "count"),
    ("render.serial_frame_ms", "ms"),
    ("warp.ms", "ms"),
    ("compose.wall_ms", "ms"),
    ("compose.encode_ms", "ms"),
    ("compose.send_ms", "ms"),
    ("compose.wait_ms", "ms"),
    ("compose.decode_ms", "ms"),
    ("compose.over_ms", "ms"),
    ("compose.flush_ms", "ms"),
    ("compose.wire_bytes", "bytes"),
    ("compose.messages", "count"),
    ("compose.sp2_ms", "ms"),
    ("compose.merge_useful", "ratio"),
    ("compose.wide_share", "ratio"),
    ("compose.pool_misses", "count"),
    ("transport.setup_ms", "ms"),
    ("transport.build_ms", "ms"),
    ("transport.spawn_ms", "ms"),
    ("transport.sockets", "count"),
    ("transport.retransmits", "count"),
    ("transport.overhead_bytes", "bytes"),
    ("stream.overlap", "ratio"),
    ("pipeline.plan_ms", "ms"),
    ("pipeline.wall_ms", "ms"),
    ("pipeline.residual_ms", "ms"),
    ("pipeline.accounted", "ratio"),
    ("trace.overhead", "ratio"),
];

/// ROADMAP's attribution bar: layers must cover this share of frame time.
const ACCOUNTED_BAR: f64 = 0.95;

const WORKLOADS: [&str; 4] = ["orbit", "views", "compose", "compose_tcp"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke) = (1, 10.0, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        smoke,
    })
}

fn run(args: &Args, inputs: &Inputs) -> Result<Outcome, String> {
    let (secs, traced) = (args.seconds, args.trace);
    match args.workload.as_str() {
        "orbit" => workloads::orbit(inputs, secs, traced),
        "views" => workloads::views(inputs, secs, traced),
        "compose" => workloads::compose(inputs, secs, traced, TransportKind::InProc),
        _ => workloads::compose(inputs, secs, traced, TransportKind::TcpLoopback),
    }
}

/// A value tree printed as compact JSON.
struct Json(Value);

impl serde::Serialize for Json {
    fn serialize(&self) -> Value {
        self.0.clone()
    }
}

fn json(v: Value) -> String {
    serde_json::to_string(&Json(v)).unwrap_or_default()
}

fn num(x: f64) -> Value {
    Value::F64(x)
}

fn metric(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".into(), num(value)),
        ("unit".into(), Value::Str(unit.into())),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("framebench: {e}");
            std::process::exit(2);
        }
    };
    let size = if args.smoke { Size::SMOKE } else { Size::PAPER };
    let inputs = Inputs::new(args.seed, size);
    let mut detail = vec![
        ("workload".into(), Value::Str(args.workload.clone())),
        ("seed".into(), Value::U64(args.seed)),
        ("trace".into(), Value::Bool(args.trace)),
        ("volume".into(), Value::U64(size.volume as u64)),
        ("frame".into(), Value::U64(size.frame as u64)),
    ];
    detail.extend(host::fingerprint(P));
    let load_start = host::loadavg();
    let cpu_start = host::cpu_jiffies();
    let out = match run(&args, &inputs) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("framebench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let cpu_end = host::cpu_jiffies();
    let steal = (cpu_end.0 - cpu_start.0) as f64 / (cpu_end.1 - cpu_start.1).max(1) as f64;
    let loads = |l: Vec<f64>| Value::Array(l.into_iter().map(num).collect());
    detail.push(("loadavg_start".into(), loads(load_start)));
    detail.push(("loadavg_end".into(), loads(host::loadavg())));
    detail.push(("cpu_steal_share".into(), num(steal)));

    let gate = &out.gate;
    let error_rate = gate.failed as f64 / gate.attempted.max(1) as f64;
    let t = tail(&out.frame_ms);
    let busy_ms: f64 = out.frame_ms.iter().sum();
    let e2e = [
        out.frame_ms.len() as f64 * 1e3 / busy_ms.max(f64::MIN_POSITIVE),
        median(&out.frame_ms),
        t.value,
        median(&out.setup_s),
        out.peak_rss_mb(),
    ];
    let mut report: Vec<String> = END_TO_END
        .iter()
        .zip(e2e)
        .map(|((name, unit), v)| format!("{name:<26} {v:>14.4} {unit}"))
        .collect();
    report.push(format!("{:<26} {error_rate:>14.4} ratio", "error_rate"));
    let mut metrics = Vec::new();
    if args.trace {
        for (name, unit) in PER_LAYER {
            let Some(values) = out.layers.get(name) else {
                eprintln!(
                    "framebench: {}: the traced run never measured {name}",
                    args.workload
                );
                std::process::exit(1);
            };
            let v = median(values);
            let n = values.len();
            report.push(format!("{name:<26} {v:>14.4} {unit}  (median of {n})"));
            metrics.push((name.to_string(), metric(v, unit)));
        }
        let accounted = median(&out.layers["pipeline.accounted"]);
        let flagged = accounted < ACCOUNTED_BAR;
        if flagged {
            report.push(format!(
                "FLAG: layers account for {:.1}% of frame wall time (< {:.0}%)",
                accounted * 100.0,
                ACCOUNTED_BAR * 100.0
            ));
        }
        detail.push(("accounted_below_bar".into(), Value::Bool(flagged)));
        let mismatches = Value::U64(gate.replica_mismatches);
        detail.push(("replica_mismatches".into(), mismatches));
    } else {
        for ((name, unit), v) in END_TO_END.iter().zip(e2e) {
            metrics.push((name.to_string(), metric(v, unit)));
        }
    }
    let setups = out.setup_s.iter().copied().map(num).collect();
    let failures = gate.notes.iter().cloned().map(Value::Str).collect();
    detail.extend([
        ("frames".into(), Value::U64(out.frame_ms.len() as u64)),
        ("setups".into(), Value::Array(setups)),
        ("tail_percentile".into(), num(t.percentile)),
        ("tail_samples".into(), Value::U64(t.samples as u64)),
        ("tail_beyond".into(), Value::U64(t.beyond as u64)),
        ("error_rate".into(), num(error_rate)),
        (
            "frame_hash".into(),
            Value::Str(format!("{:016x}", gate.frame_hash())),
        ),
        ("failures".into(), Value::Array(failures)),
    ]);

    let mode = if args.trace { "traced" } else { "untraced" };
    println!("framebench {} seed {} ({mode}):", args.workload, args.seed);
    for line in report {
        println!("  {line}");
    }
    println!("framebench-detail {}", json(Value::Object(detail)));
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(gate.failed == 0)),
        ("attempted".into(), Value::U64(gate.attempted)),
        ("failed".into(), Value::U64(gate.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{}", json(result));
}
