//! Trace and output pins for every composition family.
//!
//! Each case runs one plan end to end and folds the serde-JSON event
//! [`Trace`] plus every rank's `ComposeOutput` (frame bytes, `owners`,
//! `degraded`) into one FNV-64 digest. The digests were recorded before
//! the executor was collapsed to a single path; any change to an event, a
//! virtual-clock charge, a tag, a frame byte or an ownership map moves at
//! least one of them.
//!
//! On a mismatch the test prints the full table of actual digests, so an
//! intended protocol change can be re-pinned deliberately — never silently.

use rotate_tiling::comm::{FaultPlan, Trace};
use rotate_tiling::compress::CodecKind;
use rotate_tiling::core::exec::{ComposeConfig, ComposeOutput};
use rotate_tiling::core::hier::IntraMethod;
use rotate_tiling::core::method::Method;
use rotate_tiling::core::rotate::RtVariant;
use rotate_tiling::core::{run, ComposePlan, RunOptions};
use rotate_tiling::core::{CoreError, DisplayWall};
use rotate_tiling::imaging::pixel::{GrayAlpha8, Pixel};
use rotate_tiling::imaging::Image;

const W: usize = 32;
const H: usize = 32;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Blank-heavy, partially overlapping content: every codec finds blank
/// structure, every owner sees several contributors, and the puzzle
/// classifier meets solo, disjoint and overlapping tiles alike.
fn partials(p: usize) -> Vec<Image<GrayAlpha8>> {
    (0..p)
        .map(|r| {
            Image::from_fn(W, H, |x, y| {
                let band = (y * p / H + p - r) % p;
                if band <= 1 && (x + 3 * y + 5 * r) % 7 < 4 {
                    GrayAlpha8::new((17 * r + 3 * x + y) as u8, (90 + 11 * r + x) as u8)
                } else {
                    GrayAlpha8::blank()
                }
            })
        })
        .collect()
}

fn digest(results: &[Result<ComposeOutput<GrayAlpha8>, CoreError>], trace: &Trace) -> u64 {
    let mut h = Fnv::new();
    h.bytes(serde_json::to_string(trace).unwrap().as_bytes());
    for result in results {
        match result {
            Err(e) => {
                h.u64(0);
                h.bytes(format!("{e:?}").as_bytes());
            }
            Ok(out) => {
                h.u64(1);
                match &out.frame {
                    None => h.u64(0),
                    Some(frame) => {
                        h.u64(1);
                        h.u64(frame.width() as u64);
                        h.u64(frame.height() as u64);
                        let mut bytes = Vec::with_capacity(frame.len() * GrayAlpha8::BYTES);
                        for px in frame.pixels() {
                            px.write_bytes(&mut bytes);
                        }
                        h.bytes(&bytes);
                    }
                }
                h.u64(out.owners.len() as u64);
                for (span, owner) in &out.owners {
                    h.u64(span.start as u64);
                    h.u64(span.len as u64);
                    h.u64(*owner as u64);
                }
                h.bytes(serde_json::to_string(&out.degraded).unwrap().as_bytes());
            }
        }
    }
    h.0
}

fn rt4() -> Method {
    Method::RotateTiling {
        variant: RtVariant::TwoN,
        blocks: 4,
    }
}

fn tiles4() -> Method {
    Method::TileOwner {
        tiles_x: 4,
        tiles_y: 4,
    }
}

fn puzzle(budget_permille: u16) -> Method {
    Method::Puzzle {
        tiles_x: 4,
        tiles_y: 4,
        budget_permille,
    }
}

fn hier4() -> Method {
    Method::Hier {
        k: 4,
        intra: IntraMethod::BinarySwap,
    }
}

/// Machine size each family is pinned at.
fn p_of(method: Method) -> usize {
    match method {
        Method::Hier { .. } => 16,
        _ => 8,
    }
}

#[derive(Clone, Copy)]
enum Gather {
    Root,
    Wall,
    None,
}

fn run_case(
    method: Method,
    codec: CodecKind,
    gather: Gather,
    crash: Option<(usize, usize)>,
) -> u64 {
    let p = p_of(method);
    let plan: ComposePlan = method.plan(p, W, H).unwrap();
    let mut config = ComposeConfig::default().with_codec(codec);
    config = match gather {
        Gather::Root => config,
        Gather::Wall => config.with_display_wall(DisplayWall::new(2, 2)),
        Gather::None => config.with_gather(false),
    };
    let mut faults = FaultPlan::none();
    if let Some((rank, step)) = crash {
        config = config.resilient(true);
        faults = faults.crash_rank_at_step(rank, step);
    }
    let (results, trace) = run(
        &plan,
        partials(p),
        &config,
        RunOptions {
            faults,
            ..RunOptions::default()
        },
    );
    for (rank, result) in results.iter().enumerate() {
        let out = result
            .as_ref()
            .unwrap_or_else(|e| panic!("rank {rank}: {e}"));
        assert_eq!(out.degraded.is_some(), crash.is_some(), "rank {rank}");
    }
    digest(&results, &trace)
}

fn steps_len(method: Method) -> usize {
    match method.plan(p_of(method), W, H).unwrap() {
        ComposePlan::Schedule(s) => s.steps.len(),
        _ => unreachable!("schedule methods only"),
    }
}

/// Every pinned case: `(name, digest)` computed now.
fn actual() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let clean = [
        ("bs", Method::BinarySwap),
        ("pp", Method::ParallelPipelined),
        ("rt4", rt4()),
        ("ds", Method::DirectSend),
        ("to4x4", tiles4()),
        ("hier4", hier4()),
        ("pz0", puzzle(0)),
        ("pz600", puzzle(600)),
    ];
    let codecs = [
        ("raw", CodecKind::Raw),
        ("rle", CodecKind::Rle),
        ("trle", CodecKind::Trle),
    ];
    let gathers = [
        ("root", Gather::Root),
        ("wall", Gather::Wall),
        ("none", Gather::None),
    ];
    for (mname, method) in clean {
        for (cname, codec) in codecs {
            for (gname, gather) in gathers {
                out.push((
                    format!("{mname}/{cname}/{gname}"),
                    run_case(method, codec, gather, None),
                ));
            }
        }
    }
    // Resilient crashes: schedule steps 0 and `steps.len()` (the latter on
    // the root, which forces a gather-root election), tile and puzzle
    // points 0 and 1, and hierarchical leader crashes in the intra (step 0)
    // and inter (step 3 = inter base 2 + 1) phases.
    let mut crashes: Vec<(String, Method, (usize, usize))> = Vec::new();
    for (mname, method) in [
        ("bs", Method::BinarySwap),
        ("pp", Method::ParallelPipelined),
        ("rt4", rt4()),
        ("ds", Method::DirectSend),
    ] {
        crashes.push((format!("{mname}/crash3@0"), method, (3, 0)));
        let last = steps_len(method);
        crashes.push((format!("{mname}/crash0@end"), method, (0, last)));
    }
    for (mname, method) in [("to4x4", tiles4()), ("pz600", puzzle(600))] {
        crashes.push((format!("{mname}/crash2@0"), method, (2, 0)));
        crashes.push((format!("{mname}/crash1@1"), method, (1, 1)));
        crashes.push((format!("{mname}/crash0@1"), method, (0, 1)));
    }
    crashes.push(("hier4/crash4@0".into(), hier4(), (4, 0)));
    crashes.push(("hier4/crash4@3".into(), hier4(), (4, 3)));
    for (name, method, crash) in crashes {
        for (cname, codec) in [("raw", CodecKind::Raw), ("trle", CodecKind::Trle)] {
            for (gname, gather) in [("root", Gather::Root), ("wall", Gather::Wall)] {
                out.push((
                    format!("{name}/{cname}/{gname}"),
                    run_case(method, codec, gather, Some(crash)),
                ));
            }
        }
    }
    out
}

/// The digests recorded on the pre-refactor executor.
const PINNED: &[(&str, u64)] = &[
    ("bs/raw/root", 0x527854606a42dc67),
    ("bs/raw/wall", 0x4080deeb05461833),
    ("bs/raw/none", 0xcb695b70d5ffce06),
    ("bs/rle/root", 0x97bc753b18c6257b),
    ("bs/rle/wall", 0x0a969f1c0d80bcba),
    ("bs/rle/none", 0x709a1d4f6f48ec65),
    ("bs/trle/root", 0x848238c30a8be9e8),
    ("bs/trle/wall", 0xa2fc7341d7f527f7),
    ("bs/trle/none", 0x9f6f2f75b8ab9a8e),
    ("pp/raw/root", 0xad23cd6811dd70b8),
    ("pp/raw/wall", 0xe3cadbedb6459b56),
    ("pp/raw/none", 0x1ee7964b2103c91d),
    ("pp/rle/root", 0x3d75725ec85b346b),
    ("pp/rle/wall", 0x81628e2628cbf83c),
    ("pp/rle/none", 0x2e710f89b64ede01),
    ("pp/trle/root", 0xb2e2872377e5a307),
    ("pp/trle/wall", 0xe4201bae304b915a),
    ("pp/trle/none", 0x0f248fc4c46acbe5),
    ("rt4/raw/root", 0x1fc62c46e6939ce9),
    ("rt4/raw/wall", 0xe8d67e1915708403),
    ("rt4/raw/none", 0xb0c32a4237da19a6),
    ("rt4/rle/root", 0x008ab2a5ee7fd363),
    ("rt4/rle/wall", 0x95ab167005d214c8),
    ("rt4/rle/none", 0x336190ab2db65131),
    ("rt4/trle/root", 0x7e34829f5090b27b),
    ("rt4/trle/wall", 0xc0e8760024a5d82b),
    ("rt4/trle/none", 0x8ba7107a5b69137e),
    ("ds/raw/root", 0xba576e3184aa294c),
    ("ds/raw/wall", 0x8d279292dcaa3658),
    ("ds/raw/none", 0x595bac735f69f271),
    ("ds/rle/root", 0x7ef776a45ae1ae0d),
    ("ds/rle/wall", 0xba57c9c693790aba),
    ("ds/rle/none", 0x5f22afda77bf3a2f),
    ("ds/trle/root", 0x87dbacaa48fad5b5),
    ("ds/trle/wall", 0x16d2828d4ae03872),
    ("ds/trle/none", 0xeb099cc44718ef5b),
    ("to4x4/raw/root", 0x5477e03b028f069f),
    ("to4x4/raw/wall", 0x54159532b8e72011),
    ("to4x4/raw/none", 0x1dfc2e3fa4524882),
    ("to4x4/rle/root", 0x542289ac13b7c586),
    ("to4x4/rle/wall", 0x2240a6e3d03cfd35),
    ("to4x4/rle/none", 0x03fe31d284abe9a4),
    ("to4x4/trle/root", 0xa31d6e34c2aa4f4a),
    ("to4x4/trle/wall", 0x8350e8f8defb6572),
    ("to4x4/trle/none", 0xc99affb56752f7dc),
    ("hier4/raw/root", 0xa3b0b2022a744f0d),
    ("hier4/raw/wall", 0xa3e86f1f9a1b11ff),
    ("hier4/raw/none", 0x1f982ce5b1dbf3c7),
    ("hier4/rle/root", 0x8833f378fd1b4264),
    ("hier4/rle/wall", 0x3b8d9159e3ef0c64),
    ("hier4/rle/none", 0x5f7cbff3e518cf4b),
    ("hier4/trle/root", 0x6a651ab21e58605e),
    ("hier4/trle/wall", 0x52ac93273db18617),
    ("hier4/trle/none", 0x73fa8657ed4ba483),
    ("pz0/raw/root", 0x18a5dab3ae1de1d1),
    ("pz0/raw/wall", 0x2dd9422d748ad617),
    ("pz0/raw/none", 0xf43b4ce2357e10bc),
    ("pz0/rle/root", 0x29a9308f476239c0),
    ("pz0/rle/wall", 0xbe2e9addb0fc5a6b),
    ("pz0/rle/none", 0x85b2e7511525eaa2),
    ("pz0/trle/root", 0x642d86c3ba9a0efc),
    ("pz0/trle/wall", 0xd674f0dfae7d6c3e),
    ("pz0/trle/none", 0xe857773f03779be8),
    ("pz600/raw/root", 0x4b032c5f7930cf4d),
    ("pz600/raw/wall", 0xe31c4c688fbd328f),
    ("pz600/raw/none", 0x2c5e63196f421ca8),
    ("pz600/rle/root", 0xf8892f0bb76492e0),
    ("pz600/rle/wall", 0xdedfeefbdb582e69),
    ("pz600/rle/none", 0xa4a3bdde429ae150),
    ("pz600/trle/root", 0x6f7365042d376c94),
    ("pz600/trle/wall", 0xc33170b84992a4c8),
    ("pz600/trle/none", 0xe6916f5ab0a88186),
    ("bs/crash3@0/raw/root", 0x1c5781270e847734),
    ("bs/crash3@0/raw/wall", 0x896e4b8386ac8716),
    ("bs/crash3@0/trle/root", 0x25f4cb8f725dc6ac),
    ("bs/crash3@0/trle/wall", 0x480c442b4dd3fb85),
    ("bs/crash0@end/raw/root", 0xe3d5ec3c32da3307),
    ("bs/crash0@end/raw/wall", 0xef7b6a64739d92bc),
    ("bs/crash0@end/trle/root", 0xfaeaa2bef28fdc9e),
    ("bs/crash0@end/trle/wall", 0xaa93a74da46f5287),
    ("pp/crash3@0/raw/root", 0x356413159c67fb99),
    ("pp/crash3@0/raw/wall", 0xf1d8dbab12eef8de),
    ("pp/crash3@0/trle/root", 0x636464b92efc5196),
    ("pp/crash3@0/trle/wall", 0x8d1247814582dc03),
    ("pp/crash0@end/raw/root", 0x74f0cfda775f50d7),
    ("pp/crash0@end/raw/wall", 0x7d7823d3710071de),
    ("pp/crash0@end/trle/root", 0xab772db3179b3494),
    ("pp/crash0@end/trle/wall", 0xcdc1838210821563),
    ("rt4/crash3@0/raw/root", 0x0c8d563e03bde29b),
    ("rt4/crash3@0/raw/wall", 0x81f8ed4474412955),
    ("rt4/crash3@0/trle/root", 0xee292a988cce5616),
    ("rt4/crash3@0/trle/wall", 0xb0fad13e5f52e2a1),
    ("rt4/crash0@end/raw/root", 0xb7d5fba5c90d1d93),
    ("rt4/crash0@end/raw/wall", 0x7c24df607670af2b),
    ("rt4/crash0@end/trle/root", 0x30d14e8dd4591ebf),
    ("rt4/crash0@end/trle/wall", 0x470362014d237f37),
    ("ds/crash3@0/raw/root", 0x3891cfcc12012e83),
    ("ds/crash3@0/raw/wall", 0xf53bde7827b5b9c4),
    ("ds/crash3@0/trle/root", 0x4d7521099fafa212),
    ("ds/crash3@0/trle/wall", 0x4be651cb07154d27),
    ("ds/crash0@end/raw/root", 0x4439978496fa7207),
    ("ds/crash0@end/raw/wall", 0x852faeb9bb2e8d94),
    ("ds/crash0@end/trle/root", 0x222606ae64e5a1be),
    ("ds/crash0@end/trle/wall", 0x2923f1d48b88f57d),
    ("to4x4/crash2@0/raw/root", 0x3f9cdfee2c090480),
    ("to4x4/crash2@0/raw/wall", 0x7ec731cfb5cb4e20),
    ("to4x4/crash2@0/trle/root", 0x7aa23fff40dff599),
    ("to4x4/crash2@0/trle/wall", 0x69618ecd23101f12),
    ("to4x4/crash1@1/raw/root", 0xdcd2c98bf34262b4),
    ("to4x4/crash1@1/raw/wall", 0x007ffcf05bd8ae65),
    ("to4x4/crash1@1/trle/root", 0xa044c2dafe8c5534),
    ("to4x4/crash1@1/trle/wall", 0x81dfbb7519e12a18),
    ("to4x4/crash0@1/raw/root", 0xec6908fa95c37eac),
    ("to4x4/crash0@1/raw/wall", 0x548e733916516c9a),
    ("to4x4/crash0@1/trle/root", 0x799c68672166c680),
    ("to4x4/crash0@1/trle/wall", 0x8384437bdd3de593),
    ("pz600/crash2@0/raw/root", 0x5cf01bead1d2a5c5),
    ("pz600/crash2@0/raw/wall", 0x0865be080695940a),
    ("pz600/crash2@0/trle/root", 0x892279b6b10790d1),
    ("pz600/crash2@0/trle/wall", 0xb111315d5228a06b),
    ("pz600/crash1@1/raw/root", 0x27aa5f9993cb5356),
    ("pz600/crash1@1/raw/wall", 0xb7279612e776efe9),
    ("pz600/crash1@1/trle/root", 0x6d544d566c262a42),
    ("pz600/crash1@1/trle/wall", 0x76890c734411b1ee),
    ("pz600/crash0@1/raw/root", 0x594aac945648ab62),
    ("pz600/crash0@1/raw/wall", 0x48c8f6b270d6a656),
    ("pz600/crash0@1/trle/root", 0xb363c503928c6fc3),
    ("pz600/crash0@1/trle/wall", 0x15aaf9956f734a5e),
    ("hier4/crash4@0/raw/root", 0xe9f3e8749b5b9764),
    ("hier4/crash4@0/raw/wall", 0x241f6e6619b220d7),
    ("hier4/crash4@0/trle/root", 0x2a9ecf336c9fde03),
    ("hier4/crash4@0/trle/wall", 0x4d193bc2d1376200),
    ("hier4/crash4@3/raw/root", 0xce263a19e93848dd),
    ("hier4/crash4@3/raw/wall", 0xf148690d646ba457),
    ("hier4/crash4@3/trle/root", 0xcc13c34650c1a586),
    ("hier4/crash4@3/trle/wall", 0x9597408880bd365c),
];

#[test]
fn traces_and_outputs_match_their_pins() {
    let actual = actual();
    let mismatched: Vec<&(String, u64)> = actual
        .iter()
        .filter(|(name, d)| PINNED.iter().find(|(n, _)| n == name).map(|(_, p)| p) != Some(d))
        .collect();
    if !mismatched.is_empty() || actual.len() != PINNED.len() {
        let table: String = actual
            .iter()
            .map(|(n, d)| format!("    (\"{n}\", 0x{d:016x}),\n"))
            .collect();
        panic!(
            "{} of {} pinned cases moved ({} pinned); actual table:\n{table}",
            mismatched.len(),
            actual.len(),
            PINNED.len()
        );
    }
}

#[test]
fn pinned_runs_are_deterministic() {
    // The pins are only meaningful if a rerun reproduces them: one clean
    // and one crashed case, run twice.
    for _ in 0..2 {
        assert_eq!(
            run_case(rt4(), CodecKind::Trle, Gather::Wall, None),
            run_case(rt4(), CodecKind::Trle, Gather::Wall, None)
        );
        assert_eq!(
            run_case(tiles4(), CodecKind::Rle, Gather::Root, Some((1, 1))),
            run_case(tiles4(), CodecKind::Rle, Gather::Root, Some((1, 1)))
        );
    }
}
