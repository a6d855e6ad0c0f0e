//! Distributed execution over sockets: persistent warm workers.
//!
//! [`SocketExecutor`] keeps a fleet of **long-lived worker processes**
//! connected over loopback TCP, speaking the length-prefixed framing of
//! [`crate::frame`] around the bit-exact [`crate::wire`] scenario encoding.
//! The design goals, in order:
//!
//! 1. **Warm caches where the work is.** Each worker owns a process-local
//!    [`KernelCache`] that survives across runs: re-running a campaign (or
//!    running the next shard of the same scenario fingerprint) hits the
//!    worker's cached Ewald kernels, flat-reference solves and KL bases
//!    instead of rebuilding them on every run. Worker cache activity is
//!    credited back into the dispatcher's cache counters
//!    ([`KernelCache::credit_external`]) so reports carry real hit rates.
//! 2. **Fault tolerance without changing a single bit.** Units are dispatched
//!    in small case-contiguous batches; workers heartbeat while computing; a
//!    dead worker, a worker silent for 10 s, or one that sends a malformed
//!    frame is lost: its in-flight units are re-queued to survivors and a
//!    typed [`RunEvent::WorkerLost`] is streamed. Plan-time seeding makes the
//!    final report bit-identical no matter which worker computed which unit.
//!    Lost workers, and parked ones whose process exited between runs, are
//!    respawned at the next run's checkout, at most 4 times beyond the
//!    initial fleet; past that the circuit breaker opens and the executor
//!    degrades to the survivors ([`RunEvent::FleetDegraded`]). A worker whose
//!    connection drops redials up to 8 times, 25 ms doubling to 1.6 s apart,
//!    before it exits.
//! 3. **Honest timing.** Workers measure each solve's wall time themselves
//!    and ship it inside the result frame, so remote units populate
//!    [`crate::CampaignReport::unit_times`] like local ones.
//!
//! Binaries opt in by calling [`maybe_serve_worker`] first thing in `main`
//! (it checks [`SOCKET_WORKER_ENV`] and is a no-op otherwise):
//!
//! ```no_run
//! // first statement of the driver's `main`:
//! rough_engine::maybe_serve_worker();
//! // ... normal driver logic ...
//! ```
//!
//! Integration tests opt in with a dedicated `#[test]` entry (a no-op pass
//! unless the worker variable is set) and point the executor at it:
//!
//! ```ignore
//! #[test]
//! fn worker_entry() {
//!     rough_engine::maybe_serve_worker();
//! }
//! // parent side:
//! let executor = SocketExecutor::new(2)
//!     .with_args(["worker_entry", "--exact", "--nocapture"]);
//! ```
//!
//! [`RunEvent::WorkerLost`]: crate::events::RunEvent::WorkerLost
//! [`RunEvent::FleetDegraded`]: crate::events::RunEvent::FleetDegraded

use crate::cache::{CacheStats, KernelCache};
use crate::error::EngineError;
use crate::executor::{assembly_share, core_budget, evaluate_unit, UnitExecutor};
use crate::frame::{kind, read_frame, write_frame, Frame, PayloadWriter};
use crate::plan::Plan;
use crate::report::UnitRecord;
use crate::run::UnitSink;
use crate::wire;
use rough_core::{AssemblyParallelism, ASSEMBLY_THREADS_ENV};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Environment variable that switches a spawned process into socket-worker
/// mode; its value is the dispatcher's TCP address (`host:port`).
pub const SOCKET_WORKER_ENV: &str = "ROUGH_ENGINE_SOCKET_WORKER";

/// Interval between worker heartbeats while a batch is being computed.
const HEARTBEAT_PERIOD: Duration = Duration::from_millis(200);

/// Dispatcher-side silence tolerance before a computing worker is declared
/// lost. Generous relative to [`HEARTBEAT_PERIOD`].
const HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(10);

/// How long the dispatcher waits for freshly spawned workers to connect.
const ACCEPT_DEADLINE: Duration = Duration::from_secs(20);

/// Replacement workers the dispatcher spawns beyond its initial fleet before
/// the flapping-worker circuit breaker opens.
const RESPAWN_CAP: usize = 4;

/// Redials a worker makes after a refused connect before it gives up.
const DIAL_ATTEMPTS: u32 = 8;

/// The pause before redial number `attempt` (0-based): 25 ms doubling to a
/// 1.6 s cap.
fn dial_backoff(attempt: u32) -> Duration {
    Duration::from_millis(25 << attempt.min(6))
}

/// Dials the dispatcher at `addr`, retrying a failed connect
/// [`DIAL_ATTEMPTS`] times on the [`dial_backoff`] schedule.
fn dial(addr: &str) -> io::Result<TcpStream> {
    let mut attempt = 0;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                return Ok(stream);
            }
            Err(e) if attempt >= DIAL_ATTEMPTS => return Err(e),
            Err(_) => {
                std::thread::sleep(dial_backoff(attempt));
                attempt += 1;
            }
        }
    }
}

fn socket_error(reason: impl Into<String>) -> EngineError {
    EngineError::Socket(reason.into())
}

/// Binds the dispatcher's loopback listener on an ephemeral port, polled
/// non-blockingly by the accept loop.
fn bind_listener() -> Result<TcpListener, EngineError> {
    let listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| socket_error(format!("cannot bind tcp listener: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| socket_error(format!("cannot configure listener: {e}")))?;
    Ok(listener)
}

/// Accepts one pending connection as a blocking, no-delay stream.
fn accept(listener: &TcpListener) -> io::Result<TcpStream> {
    let (stream, _) = listener.accept()?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_nonblocking(false);
    Ok(stream)
}

/// One connected, ready worker as the dispatcher sees it.
#[derive(Debug)]
struct WorkerConn {
    /// Stable worker index (assigned at accept, reported in events).
    index: usize,
    /// Process id the worker announced in its HELLO.
    pid: u32,
    conn: TcpStream,
}

#[derive(Debug, Default)]
struct SocketState {
    listener: Option<TcpListener>,
    idle: Vec<WorkerConn>,
    children: Vec<Child>,
    next_index: usize,
    /// Worker processes ever spawned by this executor; the respawn circuit
    /// breaker compares it against `workers + RESPAWN_CAP`.
    spawned_total: usize,
}

/// Shards work units across persistent worker processes connected over
/// sockets. See the [module docs](crate::socket) for the protocol and the
/// fault-tolerance contract.
#[derive(Debug)]
pub struct SocketExecutor {
    workers: usize,
    args: Vec<String>,
    core_budget: Option<usize>,
    state: Mutex<SocketState>,
    run_counter: AtomicU64,
}

impl SocketExecutor {
    /// Creates an executor with `workers` persistent worker processes (0
    /// means one per hardware core) on a loopback TCP transport with an
    /// ephemeral port. Workers are spawned lazily on the first
    /// [`UnitExecutor::execute`] call and stay warm until the executor drops.
    pub fn new(workers: usize) -> Self {
        let workers = if workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            workers
        };
        Self {
            workers,
            args: Vec::new(),
            core_budget: None,
            state: Mutex::new(SocketState::default()),
            run_counter: AtomicU64::new(1),
        }
    }

    /// Caps the core budget this executor divides among its workers' solves
    /// (default: the whole machine). A daemon running several campaigns
    /// concurrently hands each job's executor its slice, so spawned workers'
    /// assembly shares stay within `budget` instead of `core_budget()`.
    pub fn with_core_budget(mut self, budget: usize) -> Self {
        self.core_budget = Some(budget.max(1));
        self
    }

    /// Sets extra arguments for the spawned program (e.g. a libtest filter
    /// pointing at a worker-entry `#[test]`).
    pub fn with_args(mut self, args: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.args = args.into_iter().map(Into::into).collect();
        self
    }

    /// Fault-injection hook: kills one live worker *process* (the first one
    /// still running), simulating a crash mid-run. Returns `false` when no
    /// live child exists. The dispatcher notices through the dead socket and
    /// re-dispatches — exercised by the fault-tolerance tests.
    pub fn kill_one_worker(&self) -> bool {
        let mut state = self.state.lock().expect("socket state poisoned");
        for child in &mut state.children {
            if matches!(child.try_wait(), Ok(None)) {
                let _ = child.kill();
                let _ = child.wait();
                return true;
            }
        }
        false
    }

    fn spawn_worker(&self, addr: &str, ordinal: usize) -> Result<Child, EngineError> {
        let program = std::env::current_exe()
            .map_err(|e| socket_error(format!("cannot locate current executable: {e}")))?;
        // Same budget split as the in-process executors: each worker gets
        // its fair share of the core budget as intra-solve assembly threads
        // (or the parent's explicit override).
        let share = assembly_share(self.core_budget.unwrap_or_else(core_budget), self.workers);
        let mut command = Command::new(&program);
        command
            .env(ASSEMBLY_THREADS_ENV, share.worker_count().to_string())
            .args(&self.args)
            .env(SOCKET_WORKER_ENV, addr)
            // Scope the inherited fault plan to this worker: `name#w<N>`
            // entries fire only in the N-th spawned worker process.
            .env(rough_faults::SCOPE_ENV, format!("w{ordinal}"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| socket_error(format!("cannot spawn {}: {e}", program.display())))
    }

    /// Ensures the listener is bound and `self.workers` workers are
    /// connected, spawning and accepting as needed. Returns the ready
    /// connections (removed from the idle pool for the duration of a run)
    /// plus whether the respawn circuit breaker clamped the fleet top-up.
    fn checkout_workers(&self) -> Result<(Vec<WorkerConn>, bool), EngineError> {
        let mut state = self.state.lock().expect("socket state poisoned");
        if state.listener.is_none() {
            state.listener = Some(bind_listener()?);
        }
        let addr = state
            .listener
            .as_ref()
            .expect("listener just bound")
            .local_addr()
            .map_err(|e| socket_error(format!("cannot read listener address: {e}")))?
            .to_string();

        // Reap exited children so the fleet top-up below is sized right, and
        // drop the idle connections of workers that died while parked: the
        // top-up then replaces them before this run instead of the run
        // finding them dead. (A peek cannot tell: a parked connection still
        // holds its last batch's unread STATS frame ahead of the EOF.)
        let mut exited = Vec::new();
        state.children.retain_mut(|c| match c.try_wait() {
            Ok(None) => true,
            _ => {
                exited.push(c.id());
                false
            }
        });
        state.idle.retain(|worker| !exited.contains(&worker.pid));
        let missing = self.workers.saturating_sub(state.idle.len());
        let mut to_spawn = missing.saturating_sub(state.children.len().saturating_sub(
            // children currently backing idle connections
            state.idle.len(),
        ));
        // Flapping-worker circuit breaker: once this executor has spawned
        // `workers + RESPAWN_CAP` processes in total, stop replacing dead
        // ones and degrade to whatever fleet survives.
        let spawn_budget = (self.workers + RESPAWN_CAP).saturating_sub(state.spawned_total);
        let breaker_tripped = to_spawn > spawn_budget;
        to_spawn = to_spawn.min(spawn_budget);
        for _ in 0..to_spawn {
            let child = self.spawn_worker(&addr, state.spawned_total)?;
            state.spawned_total += 1;
            state.children.push(child);
        }

        let deadline = Instant::now() + ACCEPT_DEADLINE;
        loop {
            // Never wait for more connections than live processes can
            // provide: with the breaker open (or a child that died right
            // after spawning) the fleet target shrinks below `workers`.
            state
                .children
                .retain_mut(|c| matches!(c.try_wait(), Ok(None)));
            let reachable = state.children.len().max(state.idle.len());
            if state.idle.len() >= self.workers.min(reachable) {
                break;
            }
            let accepted = accept(state.listener.as_ref().expect("listener bound"));
            match accepted {
                Ok(mut conn) => {
                    // The worker leads with HELLO; consume and validate it.
                    conn.set_read_timeout(Some(Duration::from_secs(5)))
                        .map_err(|e| socket_error(format!("cannot configure worker: {e}")))?;
                    let hello = read_frame(&mut conn)?;
                    if hello.kind != kind::HELLO {
                        return Err(socket_error(format!(
                            "worker led with frame kind {} instead of HELLO",
                            hello.kind
                        )));
                    }
                    let mut payload = hello.reader();
                    let pid = payload
                        .u64()
                        .and_then(|_version| payload.u64())
                        .ok()
                        .and_then(|pid| u32::try_from(pid).ok())
                        .ok_or_else(|| socket_error("worker sent a malformed HELLO"))?;
                    let index = state.next_index;
                    state.next_index += 1;
                    state.idle.push(WorkerConn { index, pid, conn });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(socket_error(format!("accept failed: {e}"))),
            }
        }
        if state.idle.is_empty() {
            return Err(socket_error(format!(
                "no workers connected within {ACCEPT_DEADLINE:?}"
            )));
        }
        Ok((state.idle.drain(..).collect(), breaker_tripped))
    }

    fn checkin_workers(&self, survivors: Vec<WorkerConn>) {
        let mut state = self.state.lock().expect("socket state poisoned");
        state.idle.extend(survivors);
    }
}

impl Drop for SocketExecutor {
    fn drop(&mut self) {
        let mut state = self.state.lock().expect("socket state poisoned");
        for worker in &mut state.idle {
            let _ = write_frame(&mut worker.conn, &Frame::empty(kind::SHUTDOWN));
            let _ = worker.conn.shutdown(Shutdown::Both);
        }
        for child in &mut state.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Splits the run's unit order into case-contiguous dispatch batches.
///
/// Batches never straddle a case boundary, so a worker's shard confines each
/// context build to as few workers as possible — and they are small enough
/// that a lost worker forfeits little work and survivors rebalance naturally.
fn dispatch_batches(plan: &Plan, order: &[usize], workers: usize) -> VecDeque<Vec<usize>> {
    let batch_size = (order.len() / (workers.max(1) * 4)).clamp(1, 16);
    let mut batches = VecDeque::new();
    let mut current: Vec<usize> = Vec::new();
    let mut current_case = usize::MAX;
    for &unit_id in order {
        let case = plan.units()[unit_id].case_index;
        if !current.is_empty() && (case != current_case || current.len() >= batch_size) {
            batches.push_back(std::mem::take(&mut current));
        }
        current_case = case;
        current.push(unit_id);
    }
    if !current.is_empty() {
        batches.push_back(current);
    }
    batches
}

/// Outcome of driving one worker through one run.
enum WorkerOutcome {
    /// Worker alive and consistent; return it to the idle pool with the
    /// cache activity it reported for this run.
    Alive(WorkerConn, CacheStats),
    /// Worker died or went silent; its pending units were re-queued.
    Lost,
}

impl UnitExecutor for SocketExecutor {
    fn name(&self) -> &'static str {
        "socket"
    }

    fn parallelism(&self) -> usize {
        self.workers
    }

    fn execute(
        &self,
        plan: &Plan,
        order: &[usize],
        cache: &KernelCache,
        sink: &UnitSink<'_>,
    ) -> Result<(), EngineError> {
        if order.is_empty() || sink.is_cancelled() {
            return Ok(());
        }
        let (workers, breaker_tripped) = self.checkout_workers()?;
        if breaker_tripped && workers.len() < self.workers {
            sink.fleet_degraded(workers.len(), self.workers);
        }
        let run_id = self.run_counter.fetch_add(1, Ordering::Relaxed);
        let wire_text = wire::encode_scenario(plan.scenario());
        let queue = Mutex::new(dispatch_batches(plan, order, workers.len()));
        let remaining = AtomicUsize::new(order.len());
        let failed = AtomicBool::new(false);

        let outcomes: Vec<Result<WorkerOutcome, EngineError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .into_iter()
                .map(|worker| {
                    let queue = &queue;
                    let remaining = &remaining;
                    let failed = &failed;
                    let wire_text = wire_text.as_str();
                    scope.spawn(move || {
                        drive_worker(
                            worker, run_id, wire_text, plan, sink, queue, remaining, failed,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker driver thread panicked"))
                .collect()
        });

        let mut survivors = Vec::new();
        let mut first_error = None;
        for outcome in outcomes {
            match outcome {
                Ok(WorkerOutcome::Alive(worker, stats)) => {
                    cache.credit_external(stats.hits, stats.misses);
                    survivors.push(worker);
                }
                Ok(WorkerOutcome::Lost) => {}
                Err(error) => first_error = first_error.or(Some(error)),
            }
        }
        self.checkin_workers(survivors);
        if let Some(error) = first_error {
            return Err(error);
        }
        if remaining.load(Ordering::SeqCst) > 0 && !sink.is_cancelled() {
            return Err(socket_error(format!(
                "every worker was lost with {} units outstanding",
                remaining.load(Ordering::SeqCst)
            )));
        }
        Ok(())
    }
}

/// Drives one worker through one run: RUN handshake, then a dispatch loop
/// pulling batches from the shared queue until no units remain anywhere.
#[allow(clippy::too_many_arguments)]
fn drive_worker(
    mut worker: WorkerConn,
    run_id: u64,
    wire_text: &str,
    plan: &Plan,
    sink: &UnitSink<'_>,
    queue: &Mutex<VecDeque<Vec<usize>>>,
    remaining: &AtomicUsize,
    failed: &AtomicBool,
) -> Result<WorkerOutcome, EngineError> {
    let lost = |worker: &WorkerConn, pending: Vec<usize>, sink: &UnitSink<'_>| {
        let requeued = pending.len();
        if requeued > 0 {
            queue
                .lock()
                .expect("dispatch queue poisoned")
                .push_front(pending);
        }
        sink.worker_lost(worker.index, requeued);
        WorkerOutcome::Lost
    };

    if worker
        .conn
        .set_read_timeout(Some(HEARTBEAT_TIMEOUT))
        .is_err()
    {
        return Ok(lost(&worker, Vec::new(), sink));
    }
    let run = PayloadWriter::new()
        .u64(run_id)
        .str(wire_text)
        .frame(kind::RUN);
    if write_frame(&mut worker.conn, &run).is_err() {
        // A worker that died while parked fails here; nothing dispatched yet.
        return Ok(lost(&worker, Vec::new(), sink));
    }

    let mut stats = CacheStats::default();
    loop {
        if failed.load(Ordering::SeqCst) {
            return Ok(WorkerOutcome::Alive(worker, stats));
        }
        if sink.is_cancelled() {
            return Ok(WorkerOutcome::Alive(worker, stats));
        }
        if remaining.load(Ordering::SeqCst) == 0 {
            return Ok(WorkerOutcome::Alive(worker, stats));
        }
        let Some(batch) = queue.lock().expect("dispatch queue poisoned").pop_front() else {
            // Other workers hold the remaining units in flight; wait for
            // either completion or a re-queue from a lost worker.
            std::thread::sleep(Duration::from_millis(2));
            continue;
        };

        let mut message = PayloadWriter::new().u64(run_id).u64(batch.len() as u64);
        for &unit in &batch {
            message = message.u64(unit as u64);
        }
        if write_frame(&mut worker.conn, &message.frame(kind::DISPATCH)).is_err() {
            return Ok(lost(&worker, batch, sink));
        }

        let mut pending: HashSet<usize> = batch.iter().copied().collect();
        while !pending.is_empty() {
            let frame = match read_frame(&mut worker.conn) {
                Ok(frame) => frame,
                Err(_) => {
                    // Connection error, EOF, or heartbeat-timeout silence.
                    return Ok(lost(&worker, pending.into_iter().collect(), sink));
                }
            };
            match frame.kind {
                kind::HEARTBEAT => {}
                kind::RESULT => {
                    // A RESULT that does not decode, or whose case index
                    // disagrees with the plan, is malformed: the worker is
                    // lost and its batch re-queued.
                    let Ok((id, record, wall)) = decode_result(&frame) else {
                        return Ok(lost(&worker, pending.into_iter().collect(), sink));
                    };
                    if id != run_id {
                        continue; // stale frame from a previous run; skip
                    }
                    if !pending.contains(&record.unit) {
                        failed.store(true, Ordering::SeqCst);
                        return Err(socket_error(format!(
                            "worker {} reported unassigned unit {}",
                            worker.index, record.unit
                        )));
                    }
                    let unit = &plan.units()[record.unit];
                    if unit.case_index != record.case_index {
                        return Ok(lost(&worker, pending.into_iter().collect(), sink));
                    }
                    pending.remove(&record.unit);
                    sink.unit_started(unit);
                    sink.complete_timed(record, wall)?;
                    remaining.fetch_sub(1, Ordering::SeqCst);
                }
                kind::STATS => {
                    let mut reader = frame.reader();
                    if let (Ok(id), Ok(hits), Ok(misses)) =
                        (reader.u64(), reader.u64(), reader.u64())
                    {
                        if id == run_id {
                            stats.hits = hits as usize;
                            stats.misses = misses as usize;
                        }
                    }
                }
                kind::ERR => {
                    // A solve error is deterministic: re-dispatching the unit
                    // reproduces it, so fail the run.
                    failed.store(true, Ordering::SeqCst);
                    let message = frame.reader().str().unwrap_or_default();
                    return Err(socket_error(format!(
                        "worker {} failed: {message}",
                        worker.index
                    )));
                }
                _ => {}
            }
        }
    }
}

/// Decodes a RESULT frame into `(run id, record, worker-measured wall
/// time)`. A wall time that is negative, non-finite or beyond [`Duration`]
/// is as malformed as a short frame.
fn decode_result(frame: &Frame) -> Result<(u64, UnitRecord, Duration), EngineError> {
    let mut reader = frame.reader();
    let id = reader.u64()?;
    let unit = reader.u64()? as usize;
    let case_index = reader.u64()? as usize;
    let value = reader.f64_bits()?;
    let relative_residual = reader.f64_bits()?;
    let wall_seconds = reader.f64_bits()?;
    let wall = Duration::try_from_secs_f64(wall_seconds)
        .map_err(|_| socket_error(format!("RESULT carries wall time {wall_seconds} s")))?;
    // Appended by the degradation-aware protocol revision; a shorter frame
    // means a clean solve.
    let degraded = reader.remaining() >= 8 && reader.u64()? != 0;
    let record = UnitRecord {
        unit,
        case_index,
        value,
        relative_residual,
        degraded,
    };
    Ok((id, record, wall))
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Serves the socket-worker protocol and exits the process — **when**
/// [`SOCKET_WORKER_ENV`] is set; a no-op otherwise. Call it first thing in
/// every binary that may host a [`SocketExecutor`].
pub fn maybe_serve_worker() {
    let Ok(spec) = std::env::var(SOCKET_WORKER_ENV) else {
        return;
    };
    std::process::exit(worker_main(&spec));
}

/// Persistent per-process worker state: the warm kernel cache and the plans
/// it has already expanded, keyed by scenario fingerprint. This is what makes
/// the socket executor's warm runs fast — the cache lives as long as the
/// worker process, across every run and every reconnect.
struct WorkerState {
    cache: Arc<KernelCache>,
    plans: HashMap<u64, Plan>,
    assembly: AssemblyParallelism,
    /// `(run_id, fingerprint, cache stats at run start)` of the current run.
    current: Option<(u64, u64, CacheStats)>,
}

impl WorkerState {
    fn new() -> Self {
        Self {
            cache: Arc::new(KernelCache::new()),
            plans: HashMap::new(),
            // The dispatcher sized our assembly share into the environment; a
            // worker launched by hand without it stays serial.
            assembly: AssemblyParallelism::from_env().unwrap_or(AssemblyParallelism::Serial),
            current: None,
        }
    }
}

fn worker_main(addr: &str) -> i32 {
    let mut state = WorkerState::new();
    loop {
        let Ok(stream) = dial(addr) else {
            return 1;
        };
        // Ok(true) is an orderly SHUTDOWN; Ok(false) / Err mean the
        // connection dropped and we should redial.
        if let Ok(true) = serve_connection(stream, &mut state) {
            return 0;
        }
        std::thread::sleep(dial_backoff(0));
    }
}

/// Serves one connection until SHUTDOWN (`Ok(true)`), peer disconnect
/// (`Ok(false)`), or a transport error. Solve errors are reported in-band
/// (ERR frame) and do not tear down the connection.
fn serve_connection(stream: TcpStream, state: &mut WorkerState) -> Result<bool, EngineError> {
    let writer =
        Arc::new(Mutex::new(stream.try_clone().map_err(|e| {
            socket_error(format!("cannot clone connection: {e}"))
        })?));
    let mut reader = stream;
    {
        let hello = PayloadWriter::new()
            .u64(u64::from(crate::frame::VERSION))
            .u64(u64::from(std::process::id()))
            .frame(kind::HELLO);
        write_frame(&mut *writer.lock().expect("writer lock poisoned"), &hello)?;
    }

    // Heartbeat thread: beacons only while a batch is being computed, so an
    // idle worker never fills the socket buffer of a dispatcher that is not
    // reading. A solve can take arbitrarily long; the beacons are what keep
    // the dispatcher's read timeout from declaring us dead mid-solve.
    let active = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let heartbeat = {
        let writer = Arc::clone(&writer);
        let active = Arc::clone(&active);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                if active.load(Ordering::SeqCst) {
                    let frame = Frame::empty(kind::HEARTBEAT);
                    let mut writer = writer.lock().expect("writer lock poisoned");
                    if write_frame(&mut *writer, &frame).is_err() {
                        break;
                    }
                }
                std::thread::sleep(HEARTBEAT_PERIOD);
            }
        })
    };

    let result = serve_frames(&mut reader, &writer, &active, state);
    stop.store(true, Ordering::SeqCst);
    active.store(false, Ordering::SeqCst);
    let _ = heartbeat.join();
    result
}

fn serve_frames(
    reader: &mut TcpStream,
    writer: &Mutex<TcpStream>,
    active: &AtomicBool,
    state: &mut WorkerState,
) -> Result<bool, EngineError> {
    loop {
        let frame = match read_frame(reader) {
            Ok(frame) => frame,
            Err(_) => return Ok(false), // peer gone; caller decides on redial
        };
        match frame.kind {
            kind::RUN => {
                let mut payload = frame.reader();
                let run_id = payload.u64()?;
                let wire_text = payload.str()?;
                let scenario = wire::decode_scenario(&wire_text)?;
                let fingerprint = wire::scenario_fingerprint(&scenario);
                if !state.plans.contains_key(&fingerprint) {
                    let plan = Plan::new_with_cache(&scenario, Some(&state.cache))?;
                    state.plans.insert(fingerprint, plan);
                }
                state.current = Some((run_id, fingerprint, state.cache.stats()));
            }
            kind::DISPATCH => {
                let mut payload = frame.reader();
                let run_id = payload.u64()?;
                // The count is peer-supplied: bound it by the unit ids the
                // payload actually carries before sizing anything by it.
                let count = payload.u64()?;
                if count > (payload.remaining() / 8) as u64 {
                    send_err(writer, "DISPATCH claims more units than it carries");
                    continue;
                }
                let units = (0..count)
                    .map(|_| payload.u64().map(|unit| unit as usize))
                    .collect::<Result<Vec<_>, _>>()?;
                let Some((current_run, fingerprint, stats_at_start)) = state.current else {
                    send_err(writer, "DISPATCH before RUN");
                    continue;
                };
                if run_id != current_run {
                    send_err(writer, "DISPATCH for an unknown run");
                    continue;
                }
                // Fault point: the worker process dies mid-run; the
                // dispatcher re-queues this batch to the survivors.
                if rough_faults::should_fire("worker.exit") {
                    std::process::exit(86);
                }
                let plan = &state.plans[&fingerprint];
                active.store(true, Ordering::SeqCst);
                let outcome =
                    evaluate_batch(plan, &units, state.assembly, &state.cache, run_id, writer);
                active.store(false, Ordering::SeqCst);
                if let Err(error) = outcome {
                    send_err(writer, &error.to_string());
                    continue;
                }
                // Cumulative per-run cache delta, so the dispatcher's report
                // reflects worker-side kernel reuse.
                let now = state.cache.stats();
                let stats = PayloadWriter::new()
                    .u64(run_id)
                    .u64((now.hits - stats_at_start.hits) as u64)
                    .u64((now.misses - stats_at_start.misses) as u64)
                    .frame(kind::STATS);
                let mut writer = writer.lock().expect("writer lock poisoned");
                if write_frame(&mut *writer, &stats).is_err() {
                    return Ok(false);
                }
            }
            kind::SHUTDOWN => return Ok(true),
            _ => {}
        }
    }
}

fn evaluate_batch(
    plan: &Plan,
    units: &[usize],
    assembly: AssemblyParallelism,
    cache: &KernelCache,
    run_id: u64,
    writer: &Mutex<TcpStream>,
) -> Result<(), EngineError> {
    for &unit_id in units {
        let unit = plan
            .units()
            .get(unit_id)
            .ok_or_else(|| socket_error(format!("unit id {unit_id} out of range")))?;
        let started = Instant::now();
        let record = evaluate_unit(plan, unit, cache, assembly)?;
        let wall = started.elapsed();
        let frame = PayloadWriter::new()
            .u64(run_id)
            .u64(record.unit as u64)
            .u64(record.case_index as u64)
            .f64_bits(record.value)
            .f64_bits(record.relative_residual)
            .f64_bits(wall.as_secs_f64())
            // Appended field; older dispatchers simply never read it.
            .u64(u64::from(record.degraded))
            .frame(kind::RESULT);
        let mut writer = writer.lock().expect("writer lock poisoned");
        write_frame(&mut *writer, &frame)?;
    }
    Ok(())
}

fn send_err(writer: &Mutex<TcpStream>, message: &str) {
    let frame = PayloadWriter::new().str(message).frame(kind::ERR);
    let mut writer = writer.lock().expect("writer lock poisoned");
    let _ = write_frame(&mut *writer, &frame);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use rough_core::RoughnessSpec;
    use rough_em::material::Stackup;
    use rough_em::units::{GigaHertz, Micrometers};

    fn scenario() -> Scenario {
        Scenario::builder(Stackup::paper_baseline())
            .name("socket-batch-unit")
            .roughness(RoughnessSpec::gaussian(
                Micrometers::new(1.0),
                Micrometers::new(1.0),
            ))
            .frequencies([GigaHertz::new(2.0).into(), GigaHertz::new(6.0).into()])
            .cells_per_side(6)
            .max_kl_modes(2)
            .monte_carlo(3)
            .build()
            .unwrap()
    }

    fn plan() -> Plan {
        Plan::new(&scenario()).unwrap()
    }

    #[test]
    fn dispatch_batches_respect_case_boundaries() {
        let plan = plan();
        let order: Vec<usize> = (0..plan.units().len()).collect();
        let batches = dispatch_batches(&plan, &order, 2);
        let mut seen = Vec::new();
        for batch in &batches {
            assert!(!batch.is_empty());
            let case = plan.units()[batch[0]].case_index;
            assert!(
                batch.iter().all(|&u| plan.units()[u].case_index == case),
                "batch {batch:?} straddles a case boundary"
            );
            seen.extend_from_slice(batch);
        }
        assert_eq!(seen, order, "batches must cover the order exactly");
    }

    #[test]
    fn worker_reconnects_with_backoff_when_the_listener_arrives_late() {
        assert_eq!(dial_backoff(0), Duration::from_millis(25));
        assert_eq!(dial_backoff(6), Duration::from_millis(1_600));
        assert_eq!(dial_backoff(DIAL_ATTEMPTS), Duration::from_millis(1_600));

        // Bind a listener, learn the port, drop it, then re-bind it from a
        // thread after a delay: a dialing worker must retry through the
        // refused window and succeed once the listener exists.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let delay = Duration::from_millis(150);
        let binder = std::thread::spawn(move || {
            std::thread::sleep(delay);
            let listener = TcpListener::bind(addr).unwrap();
            let (mut conn, _) = listener.accept().unwrap();
            read_frame(&mut conn).unwrap();
        });
        let started = Instant::now();
        let mut conn = dial(&addr.to_string()).expect("the worker dial loop connects");
        assert!(
            started.elapsed() >= delay,
            "the first dials must have been refused and retried"
        );
        write_frame(&mut conn, &Frame::empty(kind::HEARTBEAT)).unwrap();
        binder.join().unwrap();
    }

    #[test]
    fn a_dispatch_claiming_more_units_than_it_carries_is_answered_with_err() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut dispatcher = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (worker, _) = listener.accept().unwrap();
        let served = std::thread::spawn(move || {
            let writer = Mutex::new(worker.try_clone().unwrap());
            let mut reader = worker;
            let active = AtomicBool::new(false);
            serve_frames(&mut reader, &writer, &active, &mut WorkerState::new())
        });
        // `u64::MAX` units claimed, one carried: sizing a buffer by the
        // claim would abort the worker process.
        let dispatch = PayloadWriter::new()
            .u64(1)
            .u64(u64::MAX)
            .u64(0)
            .frame(kind::DISPATCH);
        write_frame(&mut dispatcher, &dispatch).unwrap();
        let reply = read_frame(&mut dispatcher).unwrap();
        assert_eq!(reply.kind, kind::ERR);
        assert!(reply.reader().str().unwrap().contains("more units"));
        // The connection survives the bad frame and shuts down cleanly.
        write_frame(&mut dispatcher, &Frame::empty(kind::SHUTDOWN)).unwrap();
        assert!(
            served.join().unwrap().unwrap(),
            "SHUTDOWN ends the connection"
        );
    }

    fn accept_blocking(listener: &TcpListener) -> TcpStream {
        loop {
            match accept(listener) {
                Ok(conn) => return conn,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("accept failed: {e}"),
            }
        }
    }

    /// Runs the scenario on a two-worker fleet — one honest worker served
    /// in-process by the real worker loop, one rogue that handshakes, takes
    /// a dispatch and then hands its connection and the first dispatched
    /// unit id to `rogue`. The dispatcher must lose the rogue (never
    /// committing what it sent), re-queue its batch to the honest worker,
    /// and finish bit-identically to a serial run.
    fn rogue_worker_is_lost_bit_identically(rogue: impl FnOnce(TcpStream, u64) + Send + 'static) {
        use crate::events::{FnObserver, RunEvent};
        use crate::executor::SerialExecutor;
        use crate::run::{Run, RunConfig};

        static REFERENCE: std::sync::OnceLock<crate::CampaignReport> = std::sync::OnceLock::new();
        let scenario = scenario();
        let reference = REFERENCE.get_or_init(|| {
            Run::new(&scenario, RunConfig::new().executor(SerialExecutor))
                .unwrap()
                .execute()
                .unwrap()
        });

        let listener = bind_listener().unwrap();
        let addr = listener.local_addr().unwrap();

        let honest = std::thread::spawn(move || {
            let conn = TcpStream::connect(addr).unwrap();
            let mut state = WorkerState::new();
            let _ = serve_connection(conn, &mut state);
        });
        let rogue = std::thread::spawn(move || {
            let mut conn = TcpStream::connect(addr).unwrap();
            let hello = PayloadWriter::new()
                .u64(u64::from(crate::frame::VERSION))
                .u64(u64::from(std::process::id()))
                .frame(kind::HELLO);
            write_frame(&mut conn, &hello).unwrap();
            assert_eq!(read_frame(&mut conn).unwrap().kind, kind::RUN);
            let dispatch = read_frame(&mut conn).unwrap();
            assert_eq!(dispatch.kind, kind::DISPATCH);
            let mut payload = dispatch.reader();
            let (_run, _count) = (payload.u64().unwrap(), payload.u64().unwrap());
            rogue(conn, payload.u64().unwrap());
        });

        // Hand the executor the two pre-connected workers directly (its
        // accept loop normally consumes the HELLO; do the same here).
        let mut idle = Vec::new();
        for index in 0..2 {
            let mut conn = accept_blocking(&listener);
            assert_eq!(read_frame(&mut conn).unwrap().kind, kind::HELLO);
            idle.push(WorkerConn {
                index,
                pid: 0,
                conn,
            });
        }
        let executor = Arc::new(SocketExecutor {
            workers: 2,
            args: Vec::new(),
            core_budget: None,
            state: Mutex::new(SocketState {
                listener: Some(listener),
                idle,
                children: Vec::new(),
                next_index: 2,
                spawned_total: 0,
            }),
            run_counter: AtomicU64::new(1),
        });

        let lost = Arc::new(AtomicBool::new(false));
        let lost_flag = Arc::clone(&lost);
        let report = Run::new(
            &scenario,
            RunConfig::new()
                .executor_arc(Arc::clone(&executor) as Arc<dyn crate::executor::UnitExecutor>)
                .observer(FnObserver(move |event: &RunEvent| {
                    if let RunEvent::WorkerLost { requeued, .. } = event {
                        assert!(*requeued > 0, "the rogue's batch must be re-queued");
                        lost_flag.store(true, Ordering::SeqCst);
                    }
                })),
        )
        .unwrap()
        .execute()
        .unwrap();

        assert!(
            lost.load(Ordering::SeqCst),
            "the rogue worker must surface as WorkerLost"
        );
        assert_eq!(report.records.len(), reference.records.len());
        for (got, want) in report.records.iter().zip(&reference.records) {
            assert_eq!(got.unit, want.unit);
            assert_eq!(
                got.value.to_bits(),
                want.value.to_bits(),
                "unit {} must be bit-identical despite the rogue worker",
                want.unit
            );
        }

        rogue.join().unwrap();
        drop(executor); // SHUTDOWN frame releases the honest worker loop
        honest.join().unwrap();
    }

    /// A RESULT frame for `unit` with the given case index and wall time.
    fn result_frame(unit: u64, case_index: u64, wall_seconds: f64) -> Frame {
        PayloadWriter::new()
            .u64(1)
            .u64(unit)
            .u64(case_index)
            .f64_bits(1.0)
            .f64_bits(0.0)
            .f64_bits(wall_seconds)
            .frame(kind::RESULT)
    }

    /// Fault injection at the *frame* level: the rogue's connection dies
    /// halfway through writing a RESULT frame.
    #[test]
    fn a_connection_dropped_mid_frame_requeues_to_survivors_bit_identically() {
        rogue_worker_is_lost_bit_identically(|mut conn, unit| {
            let mut bytes = Vec::new();
            write_frame(&mut bytes, &result_frame(unit, 0, 0.0)).unwrap();
            // Full header, half the payload, then a hard shutdown.
            io::Write::write_all(&mut conn, &bytes[..bytes.len() / 2]).unwrap();
            io::Write::flush(&mut conn).unwrap();
            let _ = conn.shutdown(Shutdown::Both);
        });
    }

    /// Complete RESULT frames whose wall time cannot be a [`Duration`], or
    /// whose case index disagrees with the plan, are malformed. The rogue
    /// stays connected, so it is the dispatcher's decode checks that drop
    /// it — without them the wall time or case index would panic the run.
    #[test]
    fn malformed_results_are_a_lost_worker_not_a_dispatcher_panic() {
        let malformed: [fn(u64) -> Frame; 3] = [
            |unit| result_frame(unit, 0, f64::INFINITY),
            |unit| result_frame(unit, 0, 1e300),
            |unit| result_frame(unit, u64::MAX, 0.0),
        ];
        for frame in malformed {
            rogue_worker_is_lost_bit_identically(move |mut conn, unit| {
                write_frame(&mut conn, &frame(unit)).unwrap();
                // Linger until the dispatcher hangs up.
                while read_frame(&mut conn).is_ok() {}
            });
        }
    }
}
