//! `serve-small-frames`: the `serve` binary in its own process on
//! loopback, driven by closed-loop connections (each waits for its reply
//! before sending again) streaming `gshare` sessions over SERV1/SERV3 in
//! frames of at most 64 records. Predicting a frame is ~1 µs of a
//! 15–30 µs round trip: wire encode/decode, checksums, syscalls and
//! session dispatch dominate.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bfbp_sim::registry::PredictorSpec;
use bfbp_sim::service::{ServeOptions, Server, ServerHandle};
use bfbp_sim::simulate::Simulation;
use bfbp_sim::wire::SessionStats;
use bfbp_trace::record::Trace;

use crate::common::{seeded_find, Ctx};
use crate::gate::Counts;
use crate::layers::{self, ProbeInput, FRAME_RECORDS};
use crate::wire_client::{ClientError, FrameSet, WireClient};
use crate::workloads::BfProbe;

/// The served traces: large static footprints with phase flips.
pub const TRACES: [&str; 2] = ["SERV1", "SERV3"];

/// The sessions' predictor spec.
pub const SPEC: &str = "gshare";

/// A running server: a child process, or a thread of this process when
/// no `serve` executable was given.
pub struct ServerProc {
    addr: String,
    pid: u32,
    child: Option<(Child, BufReader<ChildStdout>)>,
    thread: Option<(ServerHandle, JoinHandle<std::io::Result<u64>>)>,
}

impl ServerProc {
    /// Starts a server on an ephemeral loopback port.
    pub fn start(bin: Option<&Path>) -> Self {
        match bin {
            Some(bin) => {
                let mut child = Command::new(bin)
                    .args(["--addr", "127.0.0.1:0", "--max-conns", "8"])
                    .stdout(Stdio::piped())
                    .spawn()
                    .unwrap_or_else(|e| panic!("cannot start {}: {e}", bin.display()));
                let mut out = BufReader::new(child.stdout.take().expect("stdout is piped"));
                let mut line = String::new();
                let addr = loop {
                    line.clear();
                    let n = out.read_line(&mut line).expect("server stdout is readable");
                    assert!(n > 0, "the server exited before announcing its address");
                    if let Some(addr) = line.trim().strip_prefix("listening on ") {
                        break addr.to_owned();
                    }
                };
                Self {
                    addr,
                    pid: child.id(),
                    child: Some((child, out)),
                    thread: None,
                }
            }
            None => {
                let server = Server::bind(
                    "127.0.0.1:0",
                    bfbp::default_registry(),
                    ServeOptions::default(),
                )
                .expect("loopback bind succeeds");
                let addr = server.local_addr().to_string();
                let handle = server.handle();
                let join = std::thread::spawn(move || server.serve());
                Self {
                    addr,
                    pid: std::process::id(),
                    child: None,
                    thread: Some((handle, join)),
                }
            }
        }
    }

    /// The address clients connect to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Peak resident memory of the serving process, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        crate::host::peak_rss_mb(self.pid).unwrap_or(f64::NAN)
    }

    /// Stops the server (graceful `SHUTDOWN`, then a kill if it has not
    /// exited within ten seconds) and waits for it.
    pub fn stop(&mut self) {
        if let Some((mut child, mut out)) = self.child.take() {
            let _ = WireClient::connect(&self.addr).and_then(|mut c| c.shutdown());
            let deadline = Instant::now() + Duration::from_secs(10);
            while child.try_wait().ok().flatten().is_none() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::io::copy(&mut out, &mut std::io::sink());
        }
        if let Some((handle, join)) = self.thread.take() {
            handle.shutdown();
            let _ = join.join();
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One trace's offline reference: its frames, and the miss flag of every
/// conditional branch from an offline `Simulation::run`.
struct Reference {
    frames: FrameSet,
    flags: Vec<bool>,
    full: SessionStats,
    mpki: f64,
}

/// Length of the window's segments, between which the BF probe runs.
pub const SEGMENT_SECS: f64 = 1.0;

/// What one connection did during a window.
#[derive(Debug, Default)]
struct ConnStats {
    trace: String,
    frames: u64,
    bad_frames: u64,
    shed: u64,
    decisions: u64,
    /// Per frame of the trace's session (`PREDICT_BATCH` and
    /// `OUTCOME_BATCH` alike): its fastest round trip in µs so far
    /// (infinite until it is first sent).
    fastest: Vec<f64>,
    sessions: u64,
    opens: Vec<(Instant, Instant)>,
    frame_spans: Vec<(Instant, Instant)>,
    errors: Vec<String>,
}

/// Streams sessions of `r` through `client` until `deadline`: session
/// `*next` is already open on entry; every session is closed and its
/// final counters checked against the reference prefix it covered.
fn drive(
    client: &mut WireClient,
    next: &mut u64,
    r: &Reference,
    deadline: Instant,
    record_spans: bool,
) -> ConnStats {
    let mut st = ConnStats {
        trace: r.frames.name.clone(),
        fastest: vec![f64::INFINITY; r.frames.runs.len()],
        ..ConnStats::default()
    };
    loop {
        let session = *next;
        *next += 1;
        let mut want = SessionStats::default();
        let mut cond = 0usize;
        let mut complete = true;
        for (k, &run) in r.frames.runs.iter().enumerate() {
            if Instant::now() >= deadline {
                complete = false;
                break;
            }
            let t0 = Instant::now();
            let reply = client.send_run(session, &r.frames, run);
            let t1 = Instant::now();
            st.frames += 1;
            let n = run.end - run.start;
            match reply {
                Ok(flags) => {
                    if run.conditional {
                        let expected = &r.flags[cond..cond + n];
                        if flags != expected {
                            st.bad_frames += 1;
                            st.errors.push(format!(
                                "{} session {session}: frame at record {} has the wrong miss flags",
                                r.frames.name, run.start
                            ));
                        }
                        st.decisions += n as u64;
                        want.conditional_branches += n as u64;
                        want.mispredictions += expected.iter().filter(|&&m| m).count() as u64;
                        cond += n;
                    }
                    st.fastest[k] = st.fastest[k].min((t1 - t0).as_secs_f64() * 1e6);
                    want.records += n as u64;
                    want.instructions += r.frames.gaps[run.start..run.end]
                        .iter()
                        .map(|&g| u64::from(g) + 1)
                        .sum::<u64>();
                    if record_spans {
                        st.frame_spans.push((t0, t1));
                    }
                }
                Err(e) => {
                    st.bad_frames += 1;
                    if matches!(e, ClientError::Shed) {
                        st.shed += 1;
                    }
                    st.errors
                        .push(format!("{} session {session}: {e}", r.frames.name));
                    return st;
                }
            }
        }
        match client.close(session) {
            Ok(got) if got == want && (!complete || got == r.full) => {}
            Ok(got) => {
                st.bad_frames += 1;
                st.errors.push(format!(
                    "{} session {session}: served {got:?}, offline prefix {want:?}",
                    r.frames.name
                ));
            }
            Err(e) => {
                st.bad_frames += 1;
                st.errors
                    .push(format!("{} session {session}: close: {e}", r.frames.name));
                return st;
            }
        }
        if complete {
            st.sessions += 1;
        }
        if !complete || Instant::now() >= deadline {
            return st;
        }
        let t = Instant::now();
        if let Err(e) = client.open(*next, SPEC) {
            st.bad_frames += 1;
            st.errors.push(format!("open: {e}"));
            return st;
        }
        st.opens.push((t, Instant::now()));
    }
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) {
    let seed = ctx.cfg.seed;
    let specs: Vec<_> = TRACES.iter().map(|n| seeded_find(n, seed)).collect();
    let lens: Vec<usize> = specs.iter().map(|s| ctx.len_of(s, 1.0)).collect();
    let fp: Vec<_> = specs.iter().cloned().zip(lens.iter().copied()).collect();
    super::fingerprint(ctx, &fp, &[SPEC.to_owned()]);
    let spec = PredictorSpec::new(SPEC);

    // Offline reference (independent path): `Simulation::run` with an
    // observer collecting every conditional's miss flag.
    let mut refs = Vec::new();
    let mut traces: Vec<Trace> = Vec::new();
    for (s, &n) in specs.iter().zip(&lens) {
        ctx.place(s, n);
        let trace = ctx.cache.fetch(s, n).0;
        let mut p = ctx.build(&spec);
        let mut flags = Vec::new();
        let mut observe = |_pc: u64, _taken: bool, miss: bool| flags.push(miss);
        let (result, _) = Simulation::new(p.as_mut())
            .observer(&mut observe)
            .run_trace(&trace)
            .expect("an uncancelled replay completes");
        let counts = Counts {
            conds: result.conditional_branches(),
            misses: result.mispredictions(),
        };
        ctx.gate
            .observe(format!("{SPEC} {}", trace.name()), counts.render());
        refs.push(Reference {
            frames: FrameSet::cut(&trace, FRAME_RECORDS),
            flags,
            full: SessionStats {
                records: trace.len() as u64,
                instructions: result.instructions(),
                conditional_branches: counts.conds,
                mispredictions: counts.misses,
            },
            mpki: result.mpki(),
        });
        traces.push(trace);
    }

    let threads = ctx.cfg.threads;
    let bin = ctx.cfg.serve_bin.clone();
    // Clients come first so that dropping a repetition's product closes
    // its connections before its server is stopped.
    let mut setup = |ctx: &mut Ctx| {
        for (s, &n) in specs.iter().zip(&lens) {
            drop(ctx.fetch(s, n));
        }
        let server = ctx
            .tracer
            .span("sim.service.start", |_| ServerProc::start(bin.as_deref()));
        let mut clients = Vec::new();
        for c in 0..threads {
            let mut client = WireClient::connect(server.addr()).expect("the server accepts");
            ctx.tracer.span("sim.service.open", |_| {
                client
                    .open(session_id(c, 0), SPEC)
                    .expect("a gshare session opens");
            });
            clients.push(client);
        }
        (clients, server)
    };
    let (mut clients, mut server) = ctx.setup(&mut setup);

    let tracing = ctx.cfg.trace;
    // The window runs as one-second segments with a BF probe round after
    // each. The traced run records spans in the first half of the
    // segments only, so the two halves give the tracing overhead.
    let segments = ((ctx.cfg.seconds / SEGMENT_SECS).round() as usize).max(1);
    let windows: Vec<(f64, bool)> = (0..segments)
        .map(|i| {
            (
                ctx.cfg.seconds / segments as f64,
                tracing && i < segments.div_ceil(2),
            )
        })
        .collect();
    let mut probe = BfProbe::new(ctx, &specs[0]);
    let mut next: Vec<u64> = (0..threads).map(|c| session_id(c, 0)).collect();
    let mut all: Vec<ConnStats> = Vec::new();
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    let mut fastest: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (w, &(secs, spans)) in windows.iter().enumerate() {
        if w > 0 {
            for (c, client) in clients.iter_mut().enumerate() {
                client.open(next[c], SPEC).expect("a gshare session opens");
            }
        }
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(secs);
        let results: Vec<ConnStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(next.iter_mut())
                .enumerate()
                .map(|(c, (client, next))| {
                    let r = &refs[c % refs.len()];
                    scope.spawn(move || drive(client, next, r, deadline, spans))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a connection thread does not panic"))
                .collect()
        });
        let elapsed = start.elapsed().as_secs_f64();
        let decisions: u64 = results.iter().map(|r| r.decisions).sum();
        // Seconds per decision, so the overhead reads like the others'.
        (if spans { &mut traced } else { &mut plain }).push(elapsed / decisions.max(1) as f64);
        for st in &results {
            let best = fastest
                .entry(st.trace.clone())
                .or_insert_with(|| vec![f64::INFINITY; st.fastest.len()]);
            for (b, &us) in best.iter_mut().zip(&st.fastest) {
                *b = b.min(us);
            }
        }
        all.extend(results);
        probe.round(ctx);
        ctx.setup_again(&mut setup);
    }
    ctx.record_setup(&mut setup);
    let rss = server.peak_rss_mb();
    drop(clients);
    server.stop();

    let (mut frames, mut bad, mut shed, mut sessions) = (0, 0, 0, 0);
    for st in &all {
        ctx.gate.attempt_many(st.frames, st.bad_frames);
        for e in st.errors.iter().take(5) {
            ctx.gate.note_failure(e.clone());
        }
        frames += st.frames;
        bad += st.bad_frames;
        shed += st.shed;
        sessions += st.sessions;
        for &(a, b) in &st.frame_spans {
            ctx.tracer.record("sim.service.frame", a, b);
        }
        for &(a, b) in &st.opens {
            ctx.tracer.record("sim.service.open", a, b);
        }
    }
    // Every figure from every frame's fastest round trip over the run's
    // sessions, as replay-bf uses every chunk's fastest repetition: a
    // session's time is the sum of its frames', each connection serves
    // its trace's decisions in that time, and one pass runs both traces
    // side by side on the connections.
    let mut rtts = Vec::new();
    let (mut pass, mut rate) = (0.0f64, 0.0);
    for c in 0..threads {
        let r = &refs[c % refs.len()];
        let Some(best) = fastest.get(&r.frames.name) else {
            continue;
        };
        let session = best.iter().filter(|us| us.is_finite()).sum::<f64>() / 1e6;
        pass = pass.max(session);
        rate += r.full.conditional_branches as f64 / session;
        // Each trace's frames once, however many connections serve it.
        if c < refs.len() {
            rtts.extend(
                best.iter()
                    .zip(&r.frames.runs)
                    .filter(|(us, run)| run.conditional && us.is_finite())
                    .map(|(&us, _)| us),
            );
        }
    }
    ctx.e2e.insert("served_decisions_per_s", rate);
    super::record_latency(
        ctx,
        "one PREDICT_BATCH round trip, at each frame's fastest repetition",
        &rtts,
    );
    ctx.e2e.insert("sweep_wall_s", pass);
    ctx.e2e.insert("tune_configs_per_s", 1.0 / pass);
    ctx.e2e.insert(
        "mpki",
        refs.iter().map(|r| r.mpki).sum::<f64>() / refs.len() as f64,
    );
    ctx.e2e.insert("peak_rss_mb", rss);
    ctx.detail_num("frames", frames as f64);
    ctx.detail_num("bad_frames", bad as f64);
    ctx.detail_num("sessions_completed", sessions as f64);

    probe.finish(ctx);

    if tracing {
        super::trace_overhead(ctx, &traced, &plain);
        ctx.layer_per_span("sim.service.open_ms", "sim.service.open", 1e6);
        ctx.layer.insert(
            "sim.service.shed_frac",
            if frames > 0 {
                shed as f64 / frames as f64
            } else {
                0.0
            },
        );
        let cache_files = specs
            .iter()
            .zip(&lens)
            .filter_map(|(s, &n)| ctx.cache.entry_path(s, n))
            .collect();
        let input = ProbeInput {
            traces: layers::probe_stream(&traces),
            cache_files,
            specs: vec![spec.clone()],
            tune: Some((SPEC.to_owned(), specs.clone(), ctx.cfg.scale)),
        };
        layers::fill(ctx, &input);
    }
}

/// Session id of connection `conn`'s `k`-th session.
fn session_id(conn: usize, k: u64) -> u64 {
    ((conn as u64 + 1) << 32) | k
}
