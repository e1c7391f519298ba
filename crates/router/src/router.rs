//! The routing front-end: accept loop, consistent-hash forwarding,
//! failover, hedging, warming, rolling drain.
//!
//! The router speaks the same length-prefixed protocol as `xrta serve`
//! on both sides: clients cannot tell a router from a single daemon,
//! and shards cannot tell a router from a client. Per request:
//!
//! 1. compute the content-addressed cache key and fold it to a ring
//!    point — identical requests land on the same shard, so the
//!    shard-local caches stay hot;
//! 2. deduplicate concurrent identical requests router-side (one
//!    forward serves every concurrent asker, reusing the serve
//!    crate's [`Coordinator`] over a zero-capacity cache);
//! 3. forward to the first healthy shard in ring order; if the shard
//!    exceeds the hedge threshold, race a second attempt on the next
//!    replica and take whichever answers first;
//! 4. on transport failure, fail over along the ring with seeded
//!    backoff between rounds; `busy` sheds bias routing away from the
//!    shard for a window before trying the next replica;
//! 5. hot keys (seen [`RouterOptions::warm_hits`] times) are replayed
//!    once to the next replica in the background, so the key's
//!    failover target already holds the answer when its primary dies.
//!
//! Responses are forwarded **byte-for-byte** — the router never
//! re-encodes an answer, so the byte-identity guarantee of the
//! content-addressed cache survives the extra hop.

use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use xrta_rng::Rng;
use xrta_robust::backoff::BackoffPolicy;
use xrta_serve::proto::{write_frame, AnalyzeRequest, Request, Response};
use xrta_serve::server::{read_frame_patient, FrameRead};
use xrta_serve::stats::StatsSnapshot;
use xrta_serve::{CacheKey, Coordinator, Dispatch, ResultCache};

use crate::health::{HealthPolicy, ShardHealth, ShardState, Transition};
use crate::pool::{PoolOptions, ShardPool};
use crate::ring::Ring;

const BUSY_PREFIX: &[u8] = b"{\"status\":\"busy\"";
const SHUTTING_PREFIX: &[u8] = b"{\"status\":\"shutting_down\"";
const ANSWER_PREFIX: &[u8] = b"{\"status\":\"answer\"";
const PONG_PREFIX: &[u8] = b"{\"status\":\"pong\"";

/// Router configuration.
#[derive(Clone, Debug)]
pub struct RouterOptions {
    /// Bind address for the client-facing listener; port `0` asks the
    /// OS for an ephemeral port.
    pub addr: String,
    /// Backend `xrta serve` addresses, `host:port` each.
    pub shards: Vec<String>,
    /// How often the prober pings every non-draining shard.
    pub probe_interval: Duration,
    /// Ejection / half-open / busy-bias tunables.
    pub health: HealthPolicy,
    /// Connection-pool deadlines.
    pub pool: PoolOptions,
    /// Latency threshold after which a hedged second attempt is raced
    /// on the next replica.
    pub hedge_after: Duration,
    /// Requests for one key before it is warmed onto the next replica;
    /// `0` disables warming.
    pub warm_hits: u64,
    /// Backoff between failover rounds.
    pub retry: BackoffPolicy,
    /// Wall-clock cap across one request's failover rounds.
    pub retry_budget: Option<Duration>,
    /// Seed for the backoff jitter (mixed with the request's ring
    /// point, so concurrent requests spread out deterministically).
    pub seed: u64,
    /// Slowloris guard for client connections, as in the server.
    pub frame_deadline: Duration,
    /// Bound on waiting out a drained shard's in-flight requests and
    /// on waiting out client connections at router shutdown.
    pub drain_deadline: Duration,
    /// External shutdown trigger (the CLI wires `--cancel-file` here).
    pub cancel: Option<Arc<AtomicBool>>,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            addr: "127.0.0.1:0".to_string(),
            shards: Vec::new(),
            probe_interval: Duration::from_millis(200),
            health: HealthPolicy::default(),
            pool: PoolOptions::default(),
            hedge_after: Duration::from_millis(150),
            warm_hits: 3,
            retry: BackoffPolicy {
                base: Duration::from_millis(50),
                cap: Duration::from_secs(1),
                max_retries: 3,
            },
            retry_budget: Some(Duration::from_secs(2)),
            seed: 0,
            frame_deadline: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(5),
            cancel: None,
        }
    }
}

/// Live router counters (atomics; relaxed, operator-facing).
#[derive(Debug, Default)]
pub struct RouterStats {
    /// Analyze requests received from clients.
    pub requests: AtomicU64,
    /// Analyze requests answered with an `answer` payload.
    pub answered: AtomicU64,
    /// Concurrent duplicates served by another request's forward.
    pub deduped: AtomicU64,
    /// Forward attempts sent to shards (including hedges and warms).
    pub forwards: AtomicU64,
    /// Failover rounds that ended in a backoff sleep and a re-try.
    pub retries: AtomicU64,
    /// Hedged second attempts launched on latency.
    pub hedges: AtomicU64,
    /// Hedged attempts that won the race.
    pub hedge_wins: AtomicU64,
    /// `busy`/`shutting_down` sheds redirected to another replica.
    pub busy_redirects: AtomicU64,
    /// Hot keys replayed to their next replica.
    pub warms: AtomicU64,
    /// Rolling drains completed.
    pub drains: AtomicU64,
    /// Shards ejected by consecutive failures.
    pub ejections: AtomicU64,
    /// Shards reinstated by a half-open probe.
    pub reinstatements: AtomicU64,
    /// Requests that exhausted every shard and retry.
    pub errors: AtomicU64,
}

/// A point-in-time copy of [`RouterStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterSnapshot {
    /// See [`RouterStats::requests`].
    pub requests: u64,
    /// See [`RouterStats::answered`].
    pub answered: u64,
    /// See [`RouterStats::deduped`].
    pub deduped: u64,
    /// See [`RouterStats::forwards`].
    pub forwards: u64,
    /// See [`RouterStats::retries`].
    pub retries: u64,
    /// See [`RouterStats::hedges`].
    pub hedges: u64,
    /// See [`RouterStats::hedge_wins`].
    pub hedge_wins: u64,
    /// See [`RouterStats::busy_redirects`].
    pub busy_redirects: u64,
    /// See [`RouterStats::warms`].
    pub warms: u64,
    /// See [`RouterStats::drains`].
    pub drains: u64,
    /// See [`RouterStats::ejections`].
    pub ejections: u64,
    /// See [`RouterStats::reinstatements`].
    pub reinstatements: u64,
    /// See [`RouterStats::errors`].
    pub errors: u64,
}

impl RouterStats {
    fn snapshot(&self) -> RouterSnapshot {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        RouterSnapshot {
            requests: get(&self.requests),
            answered: get(&self.answered),
            deduped: get(&self.deduped),
            forwards: get(&self.forwards),
            retries: get(&self.retries),
            hedges: get(&self.hedges),
            hedge_wins: get(&self.hedge_wins),
            busy_redirects: get(&self.busy_redirects),
            warms: get(&self.warms),
            drains: get(&self.drains),
            ejections: get(&self.ejections),
            reinstatements: get(&self.reinstatements),
            errors: get(&self.errors),
        }
    }
}

impl RouterSnapshot {
    /// The one-line operator summary printed when the router drains.
    pub fn render_line(&self) -> String {
        format!(
            "route: {} requests | {} forwards | {} deduped | {} retries | \
             {} hedges ({} won) | {} busy redirects | {} warms | {} drains | \
             {} ejections {} reinstatements | {} errors",
            self.requests,
            self.forwards,
            self.deduped,
            self.retries,
            self.hedges,
            self.hedge_wins,
            self.busy_redirects,
            self.warms,
            self.drains,
            self.ejections,
            self.reinstatements,
            self.errors,
        )
    }
}

/// One backend shard as the router sees it.
struct Shard {
    addr: String,
    pool: ShardPool,
    health: Mutex<ShardHealth>,
    /// Requests currently forwarded to this shard (drain waits on it).
    in_flight: AtomicU64,
}

struct Inner {
    ring: Ring,
    shards: Vec<Shard>,
    options: RouterOptions,
    stats: RouterStats,
    /// Router-side single-flight: a zero-capacity cache means pure
    /// dedup — concurrent identical requests share one forward, but
    /// the router never stores results (the shards own the cache).
    dedup: Coordinator,
    /// Hot-key counters for cache warming, keyed by ring point.
    hot: Mutex<HashMap<u64, u64>>,
    shutdown: AtomicBool,
    /// Open client connections (shutdown waits for them, bounded).
    conns: AtomicU64,
}

impl Inner {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A running router. Dropping the handle does not stop it; call
/// [`RouterHandle::shutdown`] then [`RouterHandle::join`].
pub struct RouterHandle {
    addr: std::net::SocketAddr,
    inner: Arc<Inner>,
    listener_thread: Option<std::thread::JoinHandle<()>>,
    prober_thread: Option<std::thread::JoinHandle<()>>,
}

impl RouterHandle {
    /// The address actually bound (resolves ephemeral ports).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Triggers shutdown, as if a `shutdown` request arrived. Shards
    /// are left running: stopping the front-end must not take the
    /// backends down with it.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the listener and prober to exit; returns final stats.
    pub fn join(mut self) -> RouterSnapshot {
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.prober_thread.take() {
            let _ = t.join();
        }
        self.inner.stats.snapshot()
    }

    /// Live router counters.
    pub fn stats(&self) -> RouterSnapshot {
        self.inner.stats.snapshot()
    }

    /// Number of configured shards (regardless of health).
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Each shard's address and current health state, in configuration
    /// order — what tests poll to watch ejection and reinstatement.
    pub fn shard_states(&self) -> Vec<(String, ShardState)> {
        self.inner
            .shards
            .iter()
            .map(|s| (s.addr.clone(), s.health.lock().unwrap().state()))
            .collect()
    }

    /// Runs the rolling-drain sequence for one shard (also reachable
    /// over the wire via the `drain` verb).
    pub fn drain_shard(&self, shard: &str) -> Result<(), String> {
        match drain_shard(&self.inner, shard) {
            Response::Drained { .. } => Ok(()),
            Response::Error(e) => Err(e),
            other => Err(format!("unexpected drain response {other:?}")),
        }
    }
}

/// Binds the listener, spawns the prober, returns once accepting.
pub fn start(options: RouterOptions) -> io::Result<RouterHandle> {
    if options.shards.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a router needs at least one shard",
        ));
    }
    let listener = TcpListener::bind(&options.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let shards = options
        .shards
        .iter()
        .map(|a| Shard {
            addr: a.clone(),
            pool: ShardPool::new(a.clone(), options.pool),
            health: Mutex::new(ShardHealth::default()),
            in_flight: AtomicU64::new(0),
        })
        .collect();

    let inner = Arc::new(Inner {
        ring: Ring::new(&options.shards),
        shards,
        dedup: Coordinator::new(ResultCache::open(0, None)?),
        hot: Mutex::new(HashMap::new()),
        shutdown: AtomicBool::new(false),
        conns: AtomicU64::new(0),
        stats: RouterStats::default(),
        options,
    });

    let prober_thread = {
        let inner = Arc::clone(&inner);
        std::thread::Builder::new()
            .name("xrta-route-prober".to_string())
            .spawn(move || prober_loop(&inner))?
    };
    let listener_thread = {
        let inner = Arc::clone(&inner);
        std::thread::Builder::new()
            .name("xrta-route-listener".to_string())
            .spawn(move || listen_loop(listener, &inner))?
    };

    Ok(RouterHandle {
        addr,
        inner,
        listener_thread: Some(listener_thread),
        prober_thread: Some(prober_thread),
    })
}

fn listen_loop(listener: TcpListener, inner: &Arc<Inner>) {
    while !inner.shutting_down() {
        if let Some(cancel) = &inner.options.cancel {
            if cancel.load(Ordering::Relaxed) {
                inner.shutdown.store(true, Ordering::SeqCst);
                break;
            }
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let inner = Arc::clone(inner);
                inner.conns.fetch_add(1, Ordering::SeqCst);
                let _ = std::thread::Builder::new()
                    .name("xrta-route-conn".to_string())
                    .spawn(move || {
                        connection_loop(stream, &inner);
                        inner.conns.fetch_sub(1, Ordering::SeqCst);
                    });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    drop(listener);
    // Give open client connections the drain window to finish their
    // in-flight round-trips; connection threads notice the shutdown
    // flag on their next idle poll and exit.
    let deadline = Instant::now() + inner.options.drain_deadline;
    while inner.conns.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn connection_loop(mut stream: TcpStream, inner: &Arc<Inner>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_write_timeout(Some(inner.options.frame_deadline));
    let _ = stream.set_nodelay(true);
    loop {
        let payload = match read_frame_patient(&mut stream, inner.options.frame_deadline) {
            FrameRead::Frame(p) => p,
            FrameRead::Idle => {
                if inner.shutting_down() {
                    return;
                }
                continue;
            }
            FrameRead::Closed => return,
        };
        let request = match std::str::from_utf8(&payload)
            .map_err(|e| e.to_string())
            .and_then(Request::parse)
        {
            Ok(r) => r,
            Err(e) => {
                let resp = Response::Error(format!("bad request: {e}")).encode();
                if write_frame(&mut stream, resp.as_bytes()).is_err() {
                    return;
                }
                continue;
            }
        };
        let response_bytes = match request {
            Request::Ping => Response::Pong.encode().into_bytes(),
            Request::Stats => aggregate_stats(inner).encode().into_bytes(),
            Request::Shutdown => {
                inner.shutdown.store(true, Ordering::SeqCst);
                Response::ShuttingDown.encode().into_bytes()
            }
            Request::Drain { shard } => drain_shard(inner, &shard).encode().into_bytes(),
            // Delta routes exactly like analyze: the full-content key
            // keeps the router's single-flight dedup sound, and its
            // route point pins a netlist's deltas (hence their cone
            // cache) to one shard — consistent-hash compatible with
            // the analyze traffic for the same content.
            Request::Analyze(a) => route_analyze(inner, &a, &payload, "unit"),
            Request::Delta(a) => route_analyze(inner, &a, &payload, "delta"),
        };
        if write_frame(&mut stream, &response_bytes).is_err() {
            return;
        }
    }
}

/// Routes one analyze/delta request end-to-end: key, dedup, forward,
/// warm. `payload` is the client's frame, forwarded verbatim; `domain`
/// keeps analyze and delta flights for the same content from sharing a
/// dedup key (their responses differ, so a follower must never get the
/// other verb's bytes). Delta requests route like analyze — the
/// full-content key keeps a netlist's deltas (hence their cone cache)
/// pinned to one shard, consistent-hash compatible with the rest of
/// the traffic.
fn route_analyze(inner: &Arc<Inner>, a: &AnalyzeRequest, payload: &[u8], domain: &str) -> Vec<u8> {
    inner.stats.requests.fetch_add(1, Ordering::Relaxed);
    // Budgets are excluded from the routing key (shards clamp and tag
    // budgets themselves); the "route" tag keeps these keys disjoint
    // from any real cache namespace.
    let key = CacheKey::compute(&a.netlist, domain, &a.req, a.algo, a.engine, "route");
    let point = key.route_point();
    let bytes = match inner.dedup.dispatch(key) {
        // Unreachable with a zero-capacity cache, but correct anyway.
        Dispatch::Hit(bytes, _) => bytes,
        Dispatch::Follow(rx) => {
            inner.stats.deduped.fetch_add(1, Ordering::Relaxed);
            rx.recv().unwrap_or_else(|_| {
                Response::Error("router dropped the flight".to_string())
                    .encode()
                    .into_bytes()
            })
        }
        Dispatch::Lead => {
            let bytes = forward(inner, point, payload);
            inner.dedup.complete(key, &bytes, false);
            bytes
        }
    };
    if bytes.starts_with(ANSWER_PREFIX) {
        inner.stats.answered.fetch_add(1, Ordering::Relaxed);
        maybe_warm(inner, point, payload);
    }
    bytes
}

/// The shards worth trying for this round, in ring preference order:
/// healthy-and-unbiased first; failing that, healthy-but-busy-biased;
/// failing that, anything not draining (a last-ditch sweep so an
/// all-ejected cluster still gets one honest connection attempt).
fn pick_candidates(inner: &Inner, order: &[usize], now: Instant) -> Vec<usize> {
    let with = |accept: &dyn Fn(&ShardHealth) -> bool| -> Vec<usize> {
        order
            .iter()
            .copied()
            .filter(|&i| accept(&inner.shards[i].health.lock().unwrap()))
            .collect()
    };
    let fresh = with(&|h| h.routable() && !h.biased(now));
    if !fresh.is_empty() {
        return fresh;
    }
    let routable = with(&|h| h.routable());
    if !routable.is_empty() {
        return routable;
    }
    with(&|h| h.state() != ShardState::Draining)
}

/// What one failover round produced.
enum Round {
    /// A definitive reply (answer or deterministic error) to forward.
    Reply(Vec<u8>),
    /// Every candidate shed with busy/shutting-down; the bytes of the
    /// last shed, should the retries run out.
    Busy(Vec<u8>),
    /// Every candidate failed at the transport level.
    Failed,
}

/// One round over `candidates`: launch the primary, hedge to the next
/// replica on latency, fail over on errors, redirect on `busy`.
fn attempt_round(inner: &Arc<Inner>, candidates: &[usize], payload: &[u8]) -> Round {
    let (tx, rx) = mpsc::channel::<(usize, bool, io::Result<Vec<u8>>)>();
    let mut next = 0usize;
    let mut outstanding = 0usize;
    let launch = |next: &mut usize, outstanding: &mut usize, hedge: bool| {
        let idx = candidates[*next];
        *next += 1;
        *outstanding += 1;
        inner.stats.forwards.fetch_add(1, Ordering::Relaxed);
        if hedge {
            inner.stats.hedges.fetch_add(1, Ordering::Relaxed);
        }
        let inner = Arc::clone(inner);
        let tx = tx.clone();
        let payload = payload.to_vec();
        let _ = std::thread::Builder::new()
            .name("xrta-route-forward".to_string())
            .spawn(move || {
                let shard = &inner.shards[idx];
                shard.in_flight.fetch_add(1, Ordering::SeqCst);
                let result = shard.pool.request_bytes(&payload);
                shard.in_flight.fetch_sub(1, Ordering::SeqCst);
                let _ = tx.send((idx, hedge, result));
            });
    };
    launch(&mut next, &mut outstanding, false);
    let mut busy_reply: Option<Vec<u8>> = None;
    loop {
        if outstanding == 0 {
            if next < candidates.len() {
                launch(&mut next, &mut outstanding, false);
            } else {
                return busy_reply.map(Round::Busy).unwrap_or(Round::Failed);
            }
        }
        // While spare replicas remain, wait only the hedge threshold;
        // afterwards wait out the slowest outstanding send.
        let wait = if next < candidates.len() {
            inner.options.hedge_after
        } else {
            inner.options.pool.read_timeout + Duration::from_secs(1)
        };
        match rx.recv_timeout(wait) {
            Ok((idx, was_hedge, Ok(bytes))) => {
                outstanding -= 1;
                let _ = inner.shards[idx].health.lock().unwrap().record_success();
                if bytes.starts_with(BUSY_PREFIX) || bytes.starts_with(SHUTTING_PREFIX) {
                    inner.stats.busy_redirects.fetch_add(1, Ordering::Relaxed);
                    inner.shards[idx]
                        .health
                        .lock()
                        .unwrap()
                        .note_busy(&inner.options.health, Instant::now());
                    busy_reply = Some(bytes);
                    continue;
                }
                if was_hedge {
                    inner.stats.hedge_wins.fetch_add(1, Ordering::Relaxed);
                }
                return Round::Reply(bytes);
            }
            Ok((idx, _, Err(_))) => {
                outstanding -= 1;
                record_transport_failure(inner, idx);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if next < candidates.len() {
                    launch(&mut next, &mut outstanding, true);
                } else if outstanding == 0 {
                    return busy_reply.map(Round::Busy).unwrap_or(Round::Failed);
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return busy_reply.map(Round::Busy).unwrap_or(Round::Failed);
            }
        }
    }
}

fn record_transport_failure(inner: &Inner, idx: usize) {
    let transition = inner.shards[idx]
        .health
        .lock()
        .unwrap()
        .record_failure(&inner.options.health, Instant::now());
    if transition == Transition::Ejected {
        inner.stats.ejections.fetch_add(1, Ordering::Relaxed);
        inner.shards[idx].pool.clear();
    }
}

/// Forwards one payload with failover rounds and seeded backoff.
fn forward(inner: &Arc<Inner>, point: u64, payload: &[u8]) -> Vec<u8> {
    let order = inner.ring.order_for(point);
    let mut rng = Rng::seed_from_u64(inner.options.seed ^ point);
    let started = Instant::now();
    let mut attempt = 0u32;
    let mut last_busy: Option<Vec<u8>> = None;
    loop {
        let candidates = pick_candidates(inner, &order, Instant::now());
        if candidates.is_empty() {
            inner.stats.errors.fetch_add(1, Ordering::Relaxed);
            return Response::Error("no shard available: every backend is draining".to_string())
                .encode()
                .into_bytes();
        }
        match attempt_round(inner, &candidates, payload) {
            Round::Reply(bytes) => return bytes,
            Round::Busy(bytes) => last_busy = Some(bytes),
            Round::Failed => {}
        }
        if attempt >= inner.options.retry.max_retries {
            break;
        }
        let delay = inner.options.retry.delay(attempt, &mut rng);
        if let Some(budget) = inner.options.retry_budget {
            if started.elapsed() + delay >= budget {
                break;
            }
        }
        inner.stats.retries.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(delay);
        attempt += 1;
    }
    if let Some(bytes) = last_busy {
        // An honest shed: every replica is saturated. The client's own
        // retry policy takes over, exactly as against a single daemon.
        return bytes;
    }
    inner.stats.errors.fetch_add(1, Ordering::Relaxed);
    Response::Error("no shard answered: transport retries exhausted".to_string())
        .encode()
        .into_bytes()
}

/// Counts a served hot key; on exactly the `warm_hits`-th sighting,
/// replays the request to the key's next replica in the background so
/// the failover target's cache is already warm when it is needed.
fn maybe_warm(inner: &Arc<Inner>, point: u64, payload: &[u8]) {
    if inner.options.warm_hits == 0 {
        return;
    }
    let count = {
        let mut hot = inner.hot.lock().unwrap();
        // Bounded memory: a pathological key stream resets the stats
        // rather than growing the map without limit.
        if hot.len() > 8192 {
            hot.clear();
        }
        let c = hot.entry(point).or_insert(0);
        *c += 1;
        *c
    };
    if count != inner.options.warm_hits {
        return;
    }
    let order = inner.ring.order_for(point);
    let now = Instant::now();
    let Some(&replica) = order.iter().skip(1).find(|&&i| {
        let h = inner.shards[i].health.lock().unwrap();
        h.routable() && !h.biased(now)
    }) else {
        return;
    };
    inner.stats.warms.fetch_add(1, Ordering::Relaxed);
    inner.stats.forwards.fetch_add(1, Ordering::Relaxed);
    let inner = Arc::clone(inner);
    let payload = payload.to_vec();
    let _ = std::thread::Builder::new()
        .name("xrta-route-warm".to_string())
        .spawn(move || {
            let shard = &inner.shards[replica];
            shard.in_flight.fetch_add(1, Ordering::SeqCst);
            let result = shard.pool.request_bytes(&payload);
            shard.in_flight.fetch_sub(1, Ordering::SeqCst);
            match result {
                Ok(_) => {
                    let _ = shard.health.lock().unwrap().record_success();
                }
                Err(_) => record_transport_failure(&inner, replica),
            }
        });
}

/// The rolling-drain sequence for one shard: stop routing to it, wait
/// out its in-flight requests (bounded), shut the backend down, park
/// the slot in `Ejected` so a restarted process is probed back in.
fn drain_shard(inner: &Arc<Inner>, target: &str) -> Response {
    let Some(idx) = inner.shards.iter().position(|s| s.addr == target) else {
        return Response::Error(format!(
            "unknown shard {target:?} (configured: {})",
            inner
                .shards
                .iter()
                .map(|s| s.addr.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    };
    inner.shards[idx].health.lock().unwrap().begin_drain();
    let deadline = Instant::now() + inner.options.drain_deadline;
    while inner.shards[idx].in_flight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    // Tolerate a shard that is already gone: the goal state ("not
    // serving") is reached either way.
    let _ = inner.shards[idx]
        .pool
        .request_bytes(Request::Shutdown.encode().as_bytes());
    inner.shards[idx].pool.clear();
    inner.shards[idx]
        .health
        .lock()
        .unwrap()
        .finish_drain(Instant::now());
    inner.stats.drains.fetch_add(1, Ordering::Relaxed);
    Response::Drained {
        shard: target.to_string(),
    }
}

/// Cluster-wide stats: fan out to every non-draining shard and sum the
/// counters (percentiles take the worst shard). Unreachable shards
/// contribute nothing — their counters died with them.
fn aggregate_stats(inner: &Arc<Inner>) -> Response {
    let probe = Request::Stats.encode();
    let mut total = StatsSnapshot::default();
    for shard in &inner.shards {
        if shard.health.lock().unwrap().state() == ShardState::Draining {
            continue;
        }
        let Ok(bytes) = shard.pool.request_bytes(probe.as_bytes()) else {
            continue;
        };
        let Ok(text) = std::str::from_utf8(&bytes) else {
            continue;
        };
        let Ok(Response::Stats(s)) = Response::parse(text) else {
            continue;
        };
        total.requests += s.requests;
        total.answered += s.answered;
        total.hits_mem += s.hits_mem;
        total.hits_disk += s.hits_disk;
        total.misses += s.misses;
        total.computations += s.computations;
        total.sheds += s.sheds;
        total.shutdowns += s.shutdowns;
        total.errors += s.errors;
        total.in_flight += s.in_flight;
        total.queue_depth += s.queue_depth;
        total.oracle_batches += s.oracle_batches;
        total.cone_hits += s.cone_hits;
        total.cone_misses += s.cone_misses;
        total.cone_splices += s.cone_splices;
        total.sheds_memory += s.sheds_memory;
        total.mem_bytes += s.mem_bytes;
        total.p50_us = total.p50_us.max(s.p50_us);
        total.p99_us = total.p99_us.max(s.p99_us);
        // The peak is a per-process high-water mark, not additive:
        // the cluster-level figure is the worst shard.
        total.mem_peak = total.mem_peak.max(s.mem_peak);
    }
    Response::Stats(total)
}

/// Active health checking: ping every non-draining shard each
/// interval; ejected shards that have rested get a half-open probe
/// whose outcome reinstates or re-ejects them.
fn prober_loop(inner: &Arc<Inner>) {
    while !inner.shutting_down() {
        for shard in &inner.shards {
            let probe = {
                let mut h = shard.health.lock().unwrap();
                match h.state() {
                    ShardState::Draining => false,
                    ShardState::Ejected => h.due_for_probe(&inner.options.health, Instant::now()),
                    // Healthy shards get the periodic liveness ping; a
                    // half-open shard left over from a crashed probe is
                    // re-probed rather than stranded.
                    ShardState::Healthy | ShardState::HalfOpen => true,
                }
            };
            if !probe {
                continue;
            }
            let ok = shard
                .pool
                .request_bytes(Request::Ping.encode().as_bytes())
                .map(|bytes| bytes.starts_with(PONG_PREFIX))
                .unwrap_or(false);
            if ok {
                let transition = shard.health.lock().unwrap().record_success();
                if transition == Transition::Reinstated {
                    inner.stats.reinstatements.fetch_add(1, Ordering::Relaxed);
                }
            } else {
                record_transport_failure(inner, {
                    // Index lookup by identity: `shard` is a borrow of
                    // the vec element, so compare addresses.
                    inner
                        .shards
                        .iter()
                        .position(|s| std::ptr::eq(s, shard))
                        .unwrap_or(0)
                });
            }
        }
        // Sleep the interval in small steps so shutdown is prompt.
        let until = Instant::now() + inner.options.probe_interval;
        while Instant::now() < until {
            if inner.shutting_down() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrta_chi::EngineKind;
    use xrta_core::Verdict;
    use xrta_serve::client::roundtrip;
    use xrta_serve::{answer_exit_code, ServeOptions};
    use xrta_timing::Time;

    const TINY: &str = "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n";

    fn tiny_request(req_time: i64) -> Request {
        Request::Analyze(AnalyzeRequest {
            name: "tiny.bench".to_string(),
            netlist: TINY.to_string(),
            algo: Verdict::Approx2,
            engine: EngineKind::Bdd,
            req: vec![Time::new(req_time)],
            ..AnalyzeRequest::default()
        })
    }

    fn fast_options(shards: Vec<String>) -> RouterOptions {
        RouterOptions {
            shards,
            probe_interval: Duration::from_millis(30),
            health: HealthPolicy {
                eject_after: 2,
                cooldown: Duration::from_millis(80),
                busy_bias: Duration::from_millis(100),
            },
            pool: PoolOptions {
                connect_timeout: Duration::from_millis(250),
                read_timeout: Duration::from_secs(15),
                write_timeout: Duration::from_secs(5),
                idle_cap: 4,
            },
            retry: BackoffPolicy {
                base: Duration::from_millis(10),
                cap: Duration::from_millis(50),
                max_retries: 4,
            },
            retry_budget: Some(Duration::from_secs(10)),
            ..RouterOptions::default()
        }
    }

    fn spawn_shards(n: usize) -> (Vec<xrta_serve::ServerHandle>, Vec<String>) {
        let mut handles = Vec::new();
        let mut addrs = Vec::new();
        for _ in 0..n {
            let h = xrta_serve::start(ServeOptions {
                workers: 2,
                ..ServeOptions::default()
            })
            .unwrap();
            addrs.push(h.addr().to_string());
            handles.push(h);
        }
        (handles, addrs)
    }

    #[test]
    fn routes_analyze_and_aggregates_stats() {
        let (shards, addrs) = spawn_shards(2);
        let router = start(fast_options(addrs)).unwrap();
        let addr = router.addr();

        assert_eq!(roundtrip(addr, &Request::Ping).unwrap(), Response::Pong);

        let first = roundtrip(addr, &tiny_request(5)).unwrap();
        assert!(matches!(first, Response::Answer(_)), "{first:?}");
        assert_eq!(answer_exit_code(&first), 0);
        // The same request again is a shard-side cache hit with
        // identical content.
        let second = roundtrip(addr, &tiny_request(5)).unwrap();
        assert_eq!(first, second);

        let Response::Stats(total) = roundtrip(addr, &Request::Stats).unwrap() else {
            panic!("expected aggregated stats");
        };
        assert_eq!(total.requests, 2, "both analyzes hit one shard");
        assert_eq!(total.computations, 1);
        assert_eq!(total.hits_mem, 1);

        let snap = router.stats();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.answered, 2);
        assert_eq!(snap.errors, 0);

        router.shutdown();
        router.join();
        for s in shards {
            s.shutdown();
            s.join();
        }
    }

    #[test]
    fn dead_shard_fails_over_and_is_ejected() {
        let (shards, mut addrs) = spawn_shards(1);
        // Add an address nothing listens on: half the ring is dead
        // from the start.
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let dead = probe.local_addr().unwrap().to_string();
        drop(probe);
        addrs.push(dead.clone());
        let router = start(fast_options(addrs)).unwrap();
        let addr = router.addr();

        // Every request answers despite the dead shard.
        for t in 0..8 {
            let resp = roundtrip(addr, &tiny_request(t)).unwrap();
            assert!(matches!(resp, Response::Answer(_)), "req {t}: {resp:?}");
        }
        // The prober (or the data path) must have ejected the corpse.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let states = router.shard_states();
            let dead_state = states.iter().find(|(a, _)| *a == dead).unwrap().1;
            if dead_state == ShardState::Ejected || dead_state == ShardState::HalfOpen {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "dead shard never ejected: {states:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(router.stats().ejections >= 1);

        router.shutdown();
        router.join();
        for s in shards {
            s.shutdown();
            s.join();
        }
    }

    #[test]
    fn drain_is_acknowledged_and_stops_routing() {
        let (shards, addrs) = spawn_shards(2);
        let router = start(fast_options(addrs.clone())).unwrap();
        let addr = router.addr();

        let resp = roundtrip(
            addr,
            &Request::Drain {
                shard: addrs[0].clone(),
            },
        )
        .unwrap();
        assert_eq!(
            resp,
            Response::Drained {
                shard: addrs[0].clone()
            }
        );
        // The drained shard's own process drained gracefully.
        let states = router.shard_states();
        assert_eq!(states[0].1, ShardState::Ejected, "{states:?}");

        // Requests keep answering via the surviving shard.
        for t in 0..4 {
            let resp = roundtrip(addr, &tiny_request(t)).unwrap();
            assert!(matches!(resp, Response::Answer(_)), "req {t}: {resp:?}");
        }
        assert_eq!(router.stats().drains, 1);

        // Draining something unknown is a client error, not a crash.
        let resp = roundtrip(
            addr,
            &Request::Drain {
                shard: "10.0.0.1:1".to_string(),
            },
        )
        .unwrap();
        assert!(matches!(resp, Response::Error(_)), "{resp:?}");

        router.shutdown();
        router.join();
        // shards[0] was shut down by the drain; join both.
        for s in shards {
            s.shutdown();
            s.join();
        }
    }

    #[test]
    fn concurrent_identical_requests_are_deduplicated() {
        let (shards, addrs) = spawn_shards(2);
        let mut options = fast_options(addrs);
        options.warm_hits = 0; // keep the forward count exact
        let router = start(options).unwrap();
        let addr = router.addr();

        let mut threads = Vec::new();
        for _ in 0..8 {
            threads.push(std::thread::spawn(move || {
                roundtrip(addr, &tiny_request(7)).unwrap()
            }));
        }
        let replies: Vec<Response> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        for r in &replies {
            assert_eq!(r, &replies[0], "byte-identical across concurrent askers");
            assert!(matches!(r, Response::Answer(_)));
        }
        let snap = router.stats();
        assert_eq!(snap.requests, 8);
        assert!(
            snap.deduped >= 1,
            "concurrent identical requests should share a forward: {snap:?}"
        );
        // The shard tier saw exactly one computation.
        let Response::Stats(total) = roundtrip(addr, &Request::Stats).unwrap() else {
            panic!();
        };
        assert_eq!(total.computations, 1, "{total:?}");

        router.shutdown();
        router.join();
        for s in shards {
            s.shutdown();
            s.join();
        }
    }

    #[test]
    fn hot_keys_are_warmed_onto_the_next_replica() {
        let (shards, addrs) = spawn_shards(2);
        let mut options = fast_options(addrs);
        options.warm_hits = 3;
        let router = start(options).unwrap();
        let addr = router.addr();

        for _ in 0..3 {
            let resp = roundtrip(addr, &tiny_request(9)).unwrap();
            assert!(matches!(resp, Response::Answer(_)));
        }
        // The warm fires in the background; wait for both shards to
        // have computed the key once each.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let total_computations: u64 = shards.iter().map(|s| s.stats().computations).sum();
            if total_computations == 2 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "replica never warmed: {} computations",
                total_computations
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(router.stats().warms, 1);

        router.shutdown();
        router.join();
        for s in shards {
            s.shutdown();
            s.join();
        }
    }

    #[test]
    fn starting_with_no_shards_is_an_error() {
        assert!(start(RouterOptions::default()).is_err());
    }
}
