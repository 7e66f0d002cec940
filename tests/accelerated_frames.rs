//! Scanline-bounds acceleration is invisible end to end: at 48³, every
//! frame path that renders through a `PreparedVolume` — the per-frame
//! pipeline (in process and over loopback TCP), the pipelined stream and
//! the scene — produces the same bytes and the same event trace as the
//! same path fed partials from the unaccelerated `render_intermediate`.
//!
//! The unaccelerated paths are rebuilt here from the layers' public calls
//! (partition → depth order → permuted plan → per-rank render, compose and
//! warp), so no switch to turn the acceleration off exists in the program.

use rotate_tiling::comm::{ComputeKind, Trace};
use rotate_tiling::compress::CodecKind;
use rotate_tiling::core::exec::{ComposeConfig, Machine, TransportKind};
use rotate_tiling::core::method::Method;
use rotate_tiling::core::rotate::RtVariant;
use rotate_tiling::core::tile::compose_plan;
use rotate_tiling::imaging::{GrayAlpha, Image};
use rotate_tiling::pvr::animate::{orbit_cameras, OrbitConfig};
use rotate_tiling::pvr::permute::permute_plan;
use rotate_tiling::pvr::pipeline::{render_frame, render_frame_on, PipelineConfig};
use rotate_tiling::pvr::scene::prepare_scene;
use rotate_tiling::pvr::stream::{StreamConfig, StreamSession};
use rotate_tiling::render::camera::{factorize, Camera};
use rotate_tiling::render::datasets::Dataset;
use rotate_tiling::render::partition::{depth_order, partition_1d};
use rotate_tiling::render::shearwarp::{render_intermediate, warp_to_screen, RenderOptions};

const SIZE: usize = 48;

fn config(dataset: Dataset, camera: Camera, codec: CodecKind) -> PipelineConfig {
    PipelineConfig {
        dataset,
        volume_size: SIZE,
        seed: 5,
        camera,
        render: RenderOptions::square(64),
        method: Method::RotateTiling {
            variant: RtVariant::TwoN,
            blocks: 4,
        },
        codec,
        root: 0,
    }
}

/// Frames on `p` ranks with unaccelerated partials, built exactly like
/// the program's: `streamed: false` is the per-frame pipeline (render,
/// barrier, compose, warp; one frame per machine); `streamed: true` runs
/// every frame of a stream on one machine, with frame marks and
/// frame-namespaced tags and no barrier. Returns each frame with its trace.
fn plain_frames(
    p: usize,
    frames: &[PipelineConfig],
    transport: TransportKind,
    streamed: bool,
) -> Vec<(Image<GrayAlpha>, Trace)> {
    let c0 = &frames[0];
    let volume = c0.dataset.generate(c0.volume_size, c0.seed);
    let tf = c0.dataset.transfer_function();
    let setup: Vec<_> = frames
        .iter()
        .map(|c| {
            let f = factorize(&c.camera, volume.dims(), c.render.width, c.render.height);
            let parts = partition_1d(&volume, p, f.axis).unwrap();
            let depth_plan = c.method.plan(p, f.inter_size.0, f.inter_size.1).unwrap();
            let plan = permute_plan(&depth_plan, &depth_order(&parts, &f)).unwrap();
            (c, f, parts, plan)
        })
        .collect();
    let base = ComposeConfig::default()
        .with_codec(c0.codec)
        .with_root(c0.root)
        .with_transport(transport);
    let mc = Machine::build(p, &base, Default::default(), None);
    let (per_rank, _) = mc.run(|ctx| {
        let mut out = Vec::new();
        for (k, (c, f, parts, plan)) in setup.iter().enumerate() {
            let sub = &parts[ctx.rank()];
            if streamed {
                ctx.mark(format!("frame:{k}:start"));
            }
            ctx.mark("render:start");
            let (partial, _) = render_intermediate(sub, &tf, &c.camera, &c.render);
            ctx.compute(ComputeKind::Render, sub.vol.len() as u64);
            ctx.mark("render:end");
            let compose_config = if streamed {
                base.with_frame(k as u64)
            } else {
                ctx.barrier().unwrap();
                base
            };
            let composed =
                compose_plan(ctx, plan, partial, &compose_config, &mut Default::default()).unwrap();
            let screen = composed.frame.map(|inter| {
                ctx.compute(
                    ComputeKind::Render,
                    (c.render.width * c.render.height) as u64,
                );
                let screen = warp_to_screen(&inter, f, &c.render);
                ctx.mark("warp:end");
                screen
            });
            if streamed {
                ctx.mark(format!("frame:{k}:end"));
            }
            out.push((screen, ctx.take_events()));
        }
        out
    });
    (0..frames.len())
        .map(|k| {
            let image = per_rank.iter().find_map(|r| r[k].0.clone()).unwrap();
            let ranks = per_rank.iter().map(|r| r[k].1.clone()).collect();
            (image, Trace { ranks })
        })
        .collect()
}

fn plain_frame(
    p: usize,
    c: &PipelineConfig,
    transport: TransportKind,
) -> (Image<GrayAlpha>, Trace) {
    plain_frames(p, std::slice::from_ref(c), transport, false).remove(0)
}

#[test]
fn pipeline_frames_and_traces_match_unaccelerated_partials() {
    // One view per principal axis, plus a reversed traversal.
    let cameras = [
        Camera::yaw_pitch(0.3, 0.2),
        Camera::yaw_pitch(1.3, -0.2),
        Camera::yaw_pitch(0.2, 1.25),
        Camera::yaw_pitch(std::f64::consts::PI - 0.3, 0.1),
    ];
    for (i, camera) in cameras.into_iter().enumerate() {
        let dataset = Dataset::PAPER[i % 3];
        let c = config(dataset, camera, CodecKind::Trle);
        let (want, want_trace) = plain_frame(4, &c, TransportKind::InProc);
        let got = render_frame(4, &c).unwrap();
        assert_eq!(got.frame.pixels(), want.pixels(), "{camera:?}");
        assert_eq!(got.trace, want_trace, "{camera:?}");
    }
    let c = config(Dataset::Head, cameras[0], CodecKind::Raw);
    let (want, want_trace) = plain_frame(4, &c, TransportKind::InProc);
    let tcp = render_frame_on(4, &c, TransportKind::TcpLoopback).unwrap();
    assert_eq!(tcp.frame.pixels(), want.pixels());
    assert_eq!(tcp.trace, want_trace);
}

#[test]
fn streamed_orbit_frames_and_traces_match_unaccelerated_partials() {
    // A quarter orbit crosses one principal-axis change, so the stream
    // renders with two axes' slabs and bounds.
    let orbit = OrbitConfig::quarter(5);
    let base = config(Dataset::Head, Camera::front(), CodecKind::Trle);
    let streamed = StreamSession::new(4)
        .open()
        .collect_orbit(&StreamConfig::new(base), &orbit)
        .unwrap();
    let cameras = orbit_cameras(&orbit);
    let axes: std::collections::BTreeSet<usize> = cameras
        .iter()
        .map(|(_, cam)| factorize(cam, (SIZE, SIZE, SIZE), 64, 64).axis)
        .collect();
    assert_eq!(axes.len(), 2, "the orbit must cross an axis change");
    assert_eq!(streamed.len(), cameras.len());
    let frames: Vec<PipelineConfig> = cameras
        .into_iter()
        .map(|(_, camera)| PipelineConfig { camera, ..base })
        .collect();
    let want = plain_frames(4, &frames, TransportKind::InProc, true);
    for (k, (got, (want, want_trace))) in streamed.iter().zip(&want).enumerate() {
        assert_eq!(got.frame.pixels(), want.pixels(), "frame {k}");
        assert_eq!(&got.trace, want_trace, "frame {k}");
    }
}

#[test]
fn scene_partials_match_unaccelerated_partials() {
    for (dataset, camera) in [
        (Dataset::Engine, Camera::yaw_pitch(0.4, 0.2)),
        (Dataset::Brain, Camera::yaw_pitch(1.2, 0.3)),
        (Dataset::Head, Camera::yaw_pitch(0.1, -1.3)),
    ] {
        let opts = RenderOptions::square(64);
        let scene = prepare_scene(8, dataset, SIZE, 9, &camera, &opts).unwrap();
        let volume = dataset.generate(SIZE, 9);
        let tf = dataset.transfer_function();
        let f = factorize(&camera, volume.dims(), 64, 64);
        let parts = partition_1d(&volume, 8, f.axis).unwrap();
        let want: Vec<_> = depth_order(&parts, &f)
            .into_iter()
            .map(|i| render_intermediate(&parts[i], &tf, &camera, &opts).0)
            .collect();
        assert_eq!(scene.partials, want, "{} {camera:?}", dataset.name());
    }
}
