//! The differential spine (DESIGN.md §9, "The differential spine"): one
//! generator of protocol command streams, one runner that plays each stream
//! through every configuration `coallocd` accepts and compares the replies
//! byte for byte with `--shards 1` on stdin, and the grants, releases and
//! `query` hit sets with `NaiveScheduler`, which inspects every server.
//!
//! Three normalisations, no others: the order of `query`'s detail lines
//! across K and restarts, the `init` banner's ` over K shards`, and `stats`'
//! op counters where a configuration changes work but not decisions (after
//! a restore its `util` too). A failing stream is shrunk (drop lines, halve
//! integers) and printed as a script for `coallocd --shards K` on stdin.

use coalloc_core::prelude::*;
use coalloc_net::{Client, NetConfig, Server, Session, WalOptions};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// Where a WAL configuration restarts its server: a comment, so every
/// other configuration skips the line.
const RESTART: &str = "# restart";

/// splitmix64: streams must not depend on the vendored `rand`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: i64) -> i64 {
        (self.next() % n.max(1) as u64) as i64
    }

    /// True with probability `pct` percent.
    fn pct(&mut self, pct: i64) -> bool {
        self.below(100) < pct
    }
}

/// A snapshot of a fresh system a stream `load`s in place of `init`: the
/// only way a selection policy other than paper order reaches `coallocd`.
#[derive(Clone)]
struct Base {
    path: String,
    servers: u32,
    cfg: SchedulerConfig,
}

impl Base {
    fn text(&self) -> String {
        CoAllocScheduler::new(self.servers, self.cfg).snapshot()
    }
}

/// A command stream and the snapshot files it needs. The naive oracle
/// follows it if it has no `deadline`, `constrained`, `attrs`, or `load`
/// other than of a base or of the snapshot just written.
#[derive(Clone)]
struct Stream {
    lines: Vec<String>,
    bases: Vec<Base>,
    oracle: bool,
    dir: PathBuf,
}

impl Stream {
    fn new(lines: Vec<String>, oracle: bool, dir: &Path) -> Stream {
        let (bases, dir) = (Vec::new(), dir.to_path_buf());
        Stream {
            lines,
            bases,
            oracle,
            dir,
        }
    }

    fn script(&self) -> String {
        self.lines
            .iter()
            .map(|l| format!("{l}\n"))
            .collect::<String>()
            + "exit\n"
    }

    fn snap(&self, i: i64) -> String {
        format!("{}/s{i}.snap", self.dir.display())
    }
}

/// The generator's state: the stream so far, the clock, the system size
/// and how many jobs may exist.
struct Gen {
    rng: Rng,
    st: Stream,
    big: bool,
    now: i64,
    servers: i64,
    jobs: i64,
}

/// The stream of `seed`: every command whose reply does not read
/// process-global state (`metrics` and `slow` do), bursts of submits,
/// grants of 12 and more servers, hostile lines, and one `# restart`.
fn generate(seed: u64, dir: &Path) -> Stream {
    let mut rng = Rng(seed);
    // A few streams run on a hundred-odd servers, so that slot trees
    // outgrow `SCAN_MAX` and keep secondary trees, which wide grants
    // rebuild on the deferred path.
    let (big, len) = (rng.pct(4), 24 + rng.below(24));
    let (oracle, len) = (rng.pct(35), len as usize);
    let st = Stream::new(Vec::new(), oracle, dir);
    let (now, servers, jobs) = (0, 0, 0);
    let mut g = Gen {
        rng,
        st,
        big,
        now,
        servers,
        jobs,
    };
    g.open();
    while g.st.lines.len() < len {
        g.step();
    }
    let at = g.rng.below(len as i64 + 1) as usize;
    g.st.lines.insert(at, RESTART.into());
    g.st
}

impl Gen {
    /// `init`, or a `load` of a fresh system under a random policy.
    fn open(&mut self) {
        let r = &mut self.rng;
        let n = match () {
            _ if self.big => 96 + r.below(64),
            _ if r.pct(30) => 24 + r.below(17),
            _ => 2 + r.below(8),
        };
        let (horizon, dt) = (200 * (1 + r.below(3)), 10 * (1 + r.below(2)));
        (self.servers, self.now) = (n, 0);
        let policy = [
            SelectionPolicy::PaperOrder,
            SelectionPolicy::BestFit,
            SelectionPolicy::WorstFit,
            SelectionPolicy::ByServerId,
        ][if r.pct(40) { 0 } else { r.below(4) as usize }];
        if policy == SelectionPolicy::PaperOrder && r.pct(60) {
            return self.st.lines.push(format!("init {n} 10 {horizon} {dt}"));
        }
        let cfg = SchedulerConfig::builder()
            .tau(Dur(10))
            .horizon(Dur(horizon))
            .delta_t(Dur(dt))
            .policy(policy)
            .seed(r.next())
            .build();
        let path = format!("{}/base{}.snap", self.st.dir.display(), self.st.bases.len());
        self.st.lines.push(format!("load {path}"));
        let servers = n as u32;
        self.st.bases.push(Base { path, servers, cfg });
    }

    /// `q s l n` of a request submitted now, starting at `at` if given.
    fn request(&mut self, at: Option<i64>) -> (i64, String) {
        let r = &mut self.rng;
        let q = (self.now - if r.pct(10) { r.below(20) } else { 0 }).max(0);
        let s = at.unwrap_or(if r.pct(35) { q } else { q + r.below(150) });
        let l = 1 + if r.pct(10) { r.below(300) } else { r.below(80) };
        let n = match self.servers {
            wide if wide >= 24 && r.pct(50) => 12 + r.below(wide - 11),
            n if r.pct(4) => n + 1,
            n => 1 + r.below(n.min(9)),
        };
        self.jobs += 1;
        (s + l, format!("{q} {s} {l} {n}"))
    }

    fn step(&mut self) {
        let (oracle, now) = (self.st.oracle, self.now);
        let line = match self.rng.below(100) {
            0..=29 => {
                // A burst (one `submit_batch` where a cut holds it), its
                // windows often chained, so that a member meets servers an
                // earlier one moved up.
                let burst = if self.rng.pct(35) {
                    2 + self.rng.below(7)
                } else {
                    1
                };
                let mut at = None;
                for _ in 0..burst {
                    let (end, req) = self.request(at);
                    at = self.rng.pct(50).then_some(end);
                    self.st.lines.push(format!("submit {req}"));
                }
                return;
            }
            30..=35 if !oracle => {
                let (end, req) = self.request(None);
                let slack = self.rng.below(200) - 40 * self.rng.pct(15) as i64;
                format!("deadline {req} {}", end + slack)
            }
            36..=41 if !oracle => {
                format!("constrained {} {}", self.request(None).1, self.rng.below(8))
            }
            42..=45 if !oracle => {
                let server = self.rng.below(self.servers + 1);
                format!("attrs {server} {}", self.rng.below(8))
            }
            46..=55 => format!("release {}", self.rng.below(self.jobs + 1)),
            56..=65 => {
                self.now += match self.rng.pct(10) {
                    true => 100 + self.rng.below(300),
                    false => self.rng.below(40),
                };
                format!("advance {}", self.now)
            }
            66..=79 => {
                let a = (now + self.rng.below(200) - 10 * self.rng.pct(10) as i64).max(0);
                // Some windows are empty.
                let len = if self.rng.pct(3) {
                    0
                } else {
                    1 + self.rng.below(120)
                };
                format!("query {a} {}", a + len)
            }
            80..=82 => {
                let path = self.st.snap(self.rng.below(3));
                self.st.lines.push(format!("snapshot {path}"));
                // The oracle follows a `load` of what was just written.
                if !oracle && self.rng.pct(50) {
                    return;
                }
                format!("load {path}")
            }
            83..=85 if !oracle => format!("load {}", self.st.snap(self.rng.below(3))),
            86..=88 => "check".into(),
            89..=91 => "stats".into(),
            92 => return self.open(),
            93..=95 if !oracle => [
                format!("submit {now} 9223372036854775807 10 1"),
                format!("constrained {now} 9223372036854775807 10 1 0"),
                format!("deadline {now} {now} 10 1 {now}"),
                format!("submit {now} {now} 0 1"),
                format!("submit {now} {now} 10 0"),
                format!("submit {} {now} 10 1", now + 5),
                "submit 0 x 10 1".into(),
                "advance 9000000000000".into(),
                "init 0".into(),
                "query 10".into(),
                "bogus".into(),
            ][self.rng.below(11) as usize]
                .clone(),
            _ => format!("submit {}", self.request(None).1),
        };
        self.st.lines.push(line);
    }
}

/// How a configuration feeds the stream to the interpreter.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Feed {
    /// `Session::run_script`: the stdin loop.
    Stdin,
    /// `Session::exec`, one line at a time.
    Lines,
    /// `Session::exec_batch` over random cuts, each line ending one with
    /// probability `cut` percent, the pool forced on or off.
    Cuts { pool: bool, cut: i64 },
    /// An in-process TCP `Server`.
    Tcp,
    /// A WAL `Server`, shut down at `# restart` and re-bound at `then`.
    Wal { then: u32 },
}

/// A configuration: shard count, feed, engine switches, and the seed of its
/// cuts or WAL options.
#[derive(Clone, Copy, Debug)]
struct Config {
    k: u32,
    feed: Feed,
    linear: bool,
    eager: bool,
    seed: u64,
}

/// Line by line at K = 1, no switch.
const LINES: Config = Config {
    k: 1,
    feed: Feed::Lines,
    linear: false,
    eager: false,
    seed: 0,
};

impl Config {
    /// Line by line, no switch: the twin every other run at its K matches.
    fn plain(&self) -> bool {
        self.feed == Feed::Lines && !self.linear && !self.eager
    }
}

/// The configurations a stream runs under besides the reference and K = 1
/// line by line: every K, the pool forced on at every K > 1 (over whole
/// runs of submits at K = 2), and each other kind once at a random K.
fn plan(seed: u64) -> Vec<Config> {
    let mut r = Rng(seed ^ 0xC0A1_10CD);
    let pool = |pool, cut| Feed::Cuts { pool, cut };
    let any = |pool, r: &mut Rng| Feed::Cuts {
        pool,
        cut: [0, 10, 40][r.below(3) as usize],
    };
    let (off, linear) = (any(false, &mut r), any(true, &mut r));
    let eager = r.pct(50);
    let eager = any(eager, &mut r);
    let then = 1 + r.below(4) as u32;
    let kinds = [
        (Some(2), Feed::Lines, false, false),
        (Some(3), Feed::Lines, false, false),
        (Some(4), Feed::Lines, false, false),
        (Some(2), pool(true, 0), false, false),
        (Some(3), pool(true, 10), false, false),
        (Some(4), pool(true, 40), false, false),
        (None, off, false, false),
        (Some(1), Feed::Lines, true, false),
        (None, linear, true, false),
        (None, eager, false, true),
        (None, Feed::Tcp, false, false),
        (None, Feed::Wal { then }, false, false),
    ];
    kinds
        .into_iter()
        .map(|(k, feed, linear, eager)| Config {
            k: k.unwrap_or(1 + r.below(4) as u32),
            feed,
            linear,
            eager,
            seed: r.next(),
        })
        .collect()
}

/// What one configuration answered.
#[derive(Clone, Default)]
struct Run {
    /// Everything written to stdout (or the socket).
    text: String,
    /// Per line (line-fed runs).
    replies: Vec<String>,
    /// `reserve` replies after each `query` (line-fed runs).
    probes: Vec<String>,
    /// The snapshot files at the end.
    snaps: Vec<Option<String>>,
    /// Op counters over every engine the run built (session-fed runs).
    stats: OpStats,
    /// A broken invariant or a panic.
    fault: Option<String>,
}

impl Run {
    fn of(text: String) -> Run {
        Run {
            text,
            ..Run::default()
        }
    }
}

fn render(reply: &Result<String, String>) -> String {
    match reply {
        Ok(r) if r.is_empty() => String::new(),
        Ok(r) => format!("{r}\n"),
        Err(e) => format!("error: {e}\n"),
    }
}

fn verb(line: &str) -> &str {
    line.split_whitespace().next().unwrap_or("")
}

fn run(st: &Stream, cfg: &Config) -> Run {
    for i in 0..3 {
        let _ = std::fs::remove_file(st.snap(i));
    }
    for b in &st.bases {
        std::fs::write(&b.path, b.text()).unwrap();
    }
    let mut out = catch_unwind(AssertUnwindSafe(|| match cfg.feed {
        Feed::Stdin => Run::of(Session::new(1).run_script(&st.script())),
        Feed::Lines | Feed::Cuts { .. } => drive(st, cfg),
        Feed::Tcp | Feed::Wal { .. } => serve(st, cfg),
    }))
    .unwrap_or_else(|panic| {
        let text = panic.downcast_ref::<String>().map(String::as_str);
        let text = text.or(panic.downcast_ref::<&str>().copied());
        let fault = Some(format!("panicked: {}", text.unwrap_or("?")));
        Run {
            fault,
            ..Run::default()
        }
    });
    let read = |i| std::fs::read_to_string(st.snap(i)).ok();
    out.snaps = (0..3).map(read).collect();
    out
}

/// Set a configuration's switches on the engine an `init`/`load` built.
fn switches(s: &mut Session, cfg: &Config) {
    let Some(e) = s.engine() else { return };
    if let Feed::Cuts { pool, .. } = cfg.feed {
        e.set_pool_min_batch(if pool { 0 } else { usize::MAX });
    }
    e.set_linear_walk(cfg.linear);
    if cfg.eager {
        e.force_eager_ring_updates();
    }
}

/// Feed a session line by line or in random `exec_batch` cuts (an `init`
/// or `load` alone, so the switches can follow it). Line by line at K = 1,
/// a session restored from each `snapshot` runs next to the original.
fn drive(st: &Stream, cfg: &Config) -> Run {
    let (mut s, mut run) = (Session::new(cfg.k), Run::default());
    let (mut pick, mut shadow): (Option<Pick>, Option<(Session, OpStats)>) = (None, None);
    let resets = |l: &str| matches!(verb(l), "init" | "load");
    // A cut ends after a line by that line's text alone (a path by its
    // file name), so that dropping other lines while shrinking leaves it
    // where it was, and so do the scratch directories of other runs.
    let ends_cut = |l: &str| {
        let Feed::Cuts { cut, .. } = cfg.feed else {
            return true;
        };
        let mut h = std::hash::DefaultHasher::new();
        std::hash::Hash::hash(&l.rsplit('/').next(), &mut h);
        Rng(cfg.seed ^ std::hash::Hasher::finish(&h)).pct(cut)
    };
    let mut i = 0;
    while i < st.lines.len() {
        let rest = st.lines[i..].iter().take_while(|l| !resets(l));
        let len = match cfg.feed {
            Feed::Lines => 1,
            _ => (rest.clone().take_while(|l| !ends_cut(l)).count() + 1).min(rest.count().max(1)),
        };
        let cut: Vec<&str> = st.lines[i..i + len].iter().map(String::as_str).collect();
        let line = cut[0];
        i += len;
        let lone = cfg.feed == Feed::Lines && cfg.k == 1;
        if resets(line) {
            finish(shadow.take(), &mut s, &mut run);
        }
        // The plain and the constrained path with no tag required decide
        // alike.
        let free = match (cfg.plain() && lone, verb(line), s.engine()) {
            (true, "submit", Some(e)) => unconstrained(e, line),
            _ => None,
        };
        let before = s.engine().map(|e| *e.stats());
        let replies = match cfg.feed {
            Feed::Lines => vec![s.exec(line)],
            _ => s.exec_batch(&cut),
        };
        run.replies.extend(replies.iter().map(render));
        run.text.extend(replies.iter().map(render));
        if let Some(free) = free.filter(|free| Ok(free) != replies[0].as_ref()) {
            run.fault = Some(format!("`{line}`: {:?}; with no tag {free}", replies[0]));
        }
        match (verb(line), &replies[0]) {
            (_, Ok(_)) if resets(line) => {
                run.stats.accumulate(&before.unwrap_or_default());
                switches(&mut s, cfg);
                let file = std::fs::read_to_string(&line[5..]).ok();
                if verb(line) == "load" && file != s.snapshot_text() {
                    run.fault = Some(format!("`{line}` does not re-render its file"));
                }
            }
            _ if cfg.feed != Feed::Lines => {}
            ("query", Ok(hits)) => probe(s.engine().unwrap(), line, hits, &mut pick, &mut run),
            ("snapshot", Ok(_)) if lone && shadow.is_none() => {
                let mut restored = Session::new(1);
                restored.restore(&s.snapshot_text().unwrap()).unwrap();
                switches(&mut restored, cfg);
                shadow = Some((restored, *s.engine().unwrap().stats()));
            }
            _ => {}
        }
        if let Some((restored, _)) = shadow.as_mut().filter(|_| verb(line) != "snapshot") {
            let (want, got) = (render(&replies[0]), render(&restored.exec(line)));
            let (want, got) = (normalise(&want, true, UTIL), normalise(&got, true, UTIL));
            if want != got {
                run.fault = Some(format!("`{line}`: restored {got:?}, original {want:?}"));
            }
        }
    }
    finish(shadow, &mut s, &mut run);
    if let Some(e) = s.engine() {
        run.stats.accumulate(e.stats());
        e.check_consistency();
    }
    run
}

/// A restored session must also count attempts like the one that wrote
/// its snapshot.
fn finish(shadow: Option<(Session, OpStats)>, s: &mut Session, run: &mut Run) {
    let (Some((mut restored, from)), Some(e)) = (shadow, s.engine()) else {
        return;
    };
    let counts = |s: &OpStats| {
        [
            s.attempts,
            s.attempts_skipped,
            s.attempts_jumped,
            s.phase1_searches,
        ]
    };
    let want = counts(&e.stats().since(&from));
    let got = counts(restored.engine().unwrap().stats());
    if want != got {
        run.fault = Some(format!(
            "restored (attempts, skipped, jumped, phase1_searches) {got:?}, original {want:?}"
        ));
    }
}

type Pick = (Vec<ServerId>, Time, Time);

/// After a `query`, on copies of the engine, calls the wire does not make
/// yet: `range_count` must count the hits; `reserve` of the hits a mask
/// picks, then of the previous query's pick (stale by now), must answer
/// alike at every K.
fn probe(e: &CoAllocScheduler, line: &str, hits: &str, last: &mut Option<Pick>, run: &mut Run) {
    let mut detail: Vec<&str> = hits.lines().skip(1).collect();
    detail.sort_unstable();
    let (a, b) = line[6..].split_once(' ').unwrap();
    let (a, b) = (Time(a.parse().unwrap()), Time(b.parse().unwrap()));
    let mut copy = e.clone();
    if copy.range_count(a, b) != detail.len() {
        run.fault = Some(format!("`{line}`: range_count differs from the hits"));
    }
    let mask = run.probes.len() % 8;
    let picked = detail.iter().enumerate();
    let picked = picked.filter(|(i, _)| mask >> (i % 3) & 1 == 1);
    let server = |h: &str| ServerId(h[9..].split(' ').next().unwrap().parse().unwrap());
    let now: Pick = (picked.map(|(_, h)| server(h)).collect(), a.max(e.now()), b);
    run.probes
        .push(format!("{:?}", copy.reserve(&now.0, now.1, now.2)));
    if let Some((servers, from, to)) = last.replace(now) {
        run.probes
            .push(format!("{:?}", e.clone().reserve(&servers, from, to)));
    }
}

/// The reply a `submit` line would get on the constrained path with no
/// tag required, decided on a copy of the engine.
fn unconstrained(e: &CoAllocScheduler, line: &str) -> Option<String> {
    let w: Result<Vec<i64>, _> = line.split(' ').skip(1).map(str::parse).collect();
    let Ok(&[q, s, l, n]) = w.as_deref() else {
        return None;
    };
    let req = Request::advance(Time(q), Time(s), Dur(l), n as u32);
    Some(decision(
        e.clone().submit_constrained(&req, AttrSet::NONE),
        false,
    ))
}

/// Play the stream to a TCP server, or to a WAL server restarted at the
/// `# restart` line.
fn serve(st: &Stream, cfg: &Config) -> Run {
    let net = |shards| NetConfig {
        shards,
        ..NetConfig::default()
    };
    let exchange = |server: Server, lines: &[String]| {
        let script: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let client = Client::connect(server.local_addr()).unwrap();
        let replies = client.exchange_script(&(script + "exit\n")).unwrap();
        server.shutdown();
        replies
    };
    let Feed::Wal { then } = cfg.feed else {
        return Run::of(exchange(Server::bind(net(cfg.k)).unwrap(), &st.lines));
    };
    let dir = st.dir.join("wal");
    let _ = std::fs::remove_dir_all(&dir);
    let mut r = Rng(cfg.seed);
    let mut wal = |k| NetConfig {
        wal: Some(WalOptions {
            snapshot_every: r.below(8) as u64,
            segment_bytes: if r.pct(50) { 256 } else { 1 << 20 },
            ..WalOptions::new(&dir)
        }),
        ..net(k)
    };
    let at = st.lines.iter().position(|l| l == RESTART);
    let at = at.unwrap_or(st.lines.len());
    let mut text = exchange(Server::bind(wal(cfg.k)).unwrap(), &st.lines[..at]);
    // A log that still begins at `init` replays only at the K that wrote
    // it (PROTOCOL.md §6, "Restarting at another K").
    let second = Server::bind(wal(then)).or_else(|e| match e.to_string() {
        e if then != cfg.k && e.contains("(\"init ") => Server::bind(wal(cfg.k)),
        e => panic!("recovery at --shards {then}: {e}"),
    });
    text += &exchange(second.unwrap(), &st.lines[at..]);
    Run::of(text)
}

/// Where `stats` is cut when a configuration changes work: op counters.
const OPS: Option<&str> = Some(" ops=");

/// Where `stats` is cut after a restore: `util` too, which counts history a
/// snapshot does not hold (pruned and retired reservations).
const UTIL: Option<&str> = Some(" util=");

/// The normalisations: each `query` reply's detail lines sorted (when tree
/// shapes may differ), the `init` banner's ` over K shards` cut, and the
/// `stats` reply cut at `stats_cut`.
fn normalise(text: &str, sort_query: bool, stats_cut: Option<&str>) -> String {
    let (mut out, mut detail) = (Vec::new(), Vec::new());
    for l in text.lines().map(Some).chain([None]) {
        if let Some(l) = l.filter(|l| l.starts_with("  server=")) {
            detail.push(l);
            continue;
        }
        if sort_query {
            detail.sort_unstable();
        }
        out.append(&mut detail);
        let Some(l) = l else { break };
        let l = match l.split_once(" over ") {
            Some((head, _)) if l.starts_with("ok ") && l.ends_with(" shards") => head,
            _ => l,
        };
        out.push(match stats_cut.and_then(|cut| l.split_once(cut)) {
            Some((head, _)) if l.starts_with("now=") => head,
            _ => l,
        });
    }
    out.join("\n")
}

/// The texts agree up to the normalisations, or the first line that differs.
fn same(want: &str, got: &str, sort_query: bool, stats_cut: Option<&str>) -> Result<(), String> {
    let want = normalise(want, sort_query, stats_cut);
    let got = normalise(got, sort_query, stats_cut);
    let i = want
        .lines()
        .zip(got.lines())
        .take_while(|(a, b)| a == b)
        .count();
    let (a, b) = (want.lines().nth(i), got.lines().nth(i));
    ensure(want == got, || {
        format!("output line {}: expected {a:?}, got {b:?}", i + 1)
    })
}

fn ensure(ok: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    ok.then_some(()).ok_or_else(why)
}

/// Follow the stream on `NaiveScheduler`, checking each grant, rejection,
/// release and `query` hit set — up to the release of a job that started
/// before the live window: the engine pruned the history next to it (or
/// retires it whole), so the period it frees starts later than the naive
/// scheduler's, which keeps all history, and paper order ranks by start.
fn oracle(st: &Stream, replies: &[String]) -> Result<(), String> {
    let mut naive: Option<(NaiveScheduler, SlotConfig)> = None;
    for (line, reply) in st.lines.iter().zip(replies) {
        let w: Vec<&str> = line.split(' ').collect();
        let int = |i: usize| w[i].parse::<i64>().unwrap();
        let fresh =
            |n, cfg: SchedulerConfig| Some((NaiveScheduler::new(n, cfg), cfg.slot_config()));
        let want = match (w[0], naive.as_mut()) {
            ("init", _) if reply.starts_with("ok") => {
                let cfg = SchedulerConfig::builder().tau(Dur(int(2)));
                let cfg = cfg.horizon(Dur(int(3))).delta_t(Dur(int(4))).build();
                naive = fresh(int(1) as u32, cfg);
                continue;
            }
            ("load", _) => {
                if let Some(b) = st.bases.iter().find(|b| b.path == w[1]) {
                    naive = fresh(b.servers, b.cfg);
                }
                continue;
            }
            ("advance", Some((nv, _))) if reply.starts_with("ok") => {
                nv.advance_to(Time(int(1)));
                continue;
            }
            ("submit", Some((nv, _))) => {
                let req = Request::advance(Time(int(1)), Time(int(2)), Dur(int(3)), int(4) as u32);
                decision(nv.submit(&req), true)
            }
            ("release", Some((nv, slots))) => {
                let (job, window) = (
                    JobId(int(1) as u64),
                    slots.slot_start(slots.slot_of(nv.now())),
                );
                let servers =
                    (0..nv.num_servers()).map(|s| nv.timeline().reservations(ServerId(s)));
                if servers.flatten().any(|r| r.job == job && r.start <= window) {
                    return Ok(());
                }
                nv.release(job)
                    .map_or_else(|e| format!("error {e}"), |()| "ok".into())
            }
            ("query", Some((nv, _))) => {
                let (start, end, horizon) =
                    (Time(int(1)).max(nv.now()), Time(int(2)), nv.horizon_end());
                let live = end > start && start < horizon && end <= horizon;
                let hits = if live {
                    nv.find_all_feasible(start, end)
                } else {
                    Vec::new()
                };
                let mut out = format!("free {}", hits.len());
                for p in hits {
                    let slack = (p.end.min(horizon) - end).secs();
                    let idle_end = if p.end.is_inf() {
                        "inf".into()
                    } else {
                        p.end.secs().to_string()
                    };
                    let (server, start) = (p.server.0, p.start.secs());
                    out += &format!("\n  server={server} idle=[{start}, {idle_end}) slack={slack}");
                }
                normalise(&out, true, None)
            }
            _ => continue,
        };
        let got = match reply.trim_end().split_once("servers=") {
            Some((head, ids)) => format!(
                "{head}servers={}",
                sorted(ids.split(',').map(|s| s.parse().unwrap()), true)
            ),
            None => normalise(reply, true, None),
        };
        ensure(want == got, || {
            format!("naive oracle: `{line}`: expected {want:?}, got {got:?}")
        })?;
    }
    Ok(())
}

/// A `submit` reply as the wire renders it, its servers sorted if `sort`.
fn decision(d: Result<Grant, ScheduleError>, sort: bool) -> String {
    let g = match d {
        Ok(g) => g,
        Err(e) => return format!("rejected {e}"),
    };
    let (job, start, end) = (g.job.0, g.start.secs(), g.end.secs());
    let (tries, wait) = (g.attempts, g.waiting.secs());
    let ids = sorted(g.servers.iter().map(|s| s.0), sort);
    format!("granted job={job} start={start} end={end} attempts={tries} wait={wait} servers={ids}")
}

/// Server ids, comma-separated, in ascending order if `sort`.
fn sorted(ids: impl Iterator<Item = u32>, sort: bool) -> String {
    let mut ids: Vec<u32> = ids.collect();
    if sort {
        ids.sort_unstable();
    }
    ids.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
}

/// Judge one run: its text against `base` (the reference for a plain run,
/// the plain run at its K otherwise), its snapshot files against the
/// reference's, and what the configuration adds.
fn judge(st: &Stream, cfg: &Config, got: &Run, base: &Run, want: &Run) -> Result<(), String> {
    got.fault.clone().map_or(Ok(()), Err)?;
    let restarts = matches!(cfg.feed, Feed::Wal { .. });
    let (sort, cut) = match () {
        _ if cfg.plain() => (cfg.k > 1, OPS.filter(|_| cfg.k > 1)),
        _ if restarts => (true, UTIL),
        _ if cfg.linear || cfg.eager || matches!(cfg.feed, Feed::Cuts { pool: true, .. }) => {
            (false, OPS)
        }
        _ => (false, None),
    };
    same(&base.text, &got.text, sort, cut)?;
    ensure(got.snaps == want.snaps, || "snapshot files differ".into())?;
    if cfg.plain() && cfg.k == 1 && st.oracle {
        oracle(st, &got.replies)?;
    }
    if cfg.plain() {
        return Ok(());
    }
    let (g, b) = (got.stats, base.stats);
    // A pooled batch measures its searches on the pre-batch ranges.
    let searches = |mut s: OpStats| {
        (s.primary_visits, s.secondary_visits, s.phase2_searches) = (0, 0, 0);
        s
    };
    let why = || format!("op counters {g:?}, line by line {b:?}");
    match cfg.feed {
        // Every start the linear walk probes the jumping ladder probes or
        // jumps, and jumps are the only skips it adds.
        _ if cfg.linear => ensure(
            b.attempts + b.attempts_jumped == g.attempts
                && b.attempts_skipped.checked_sub(b.attempts_jumped) == Some(g.attempts_skipped)
                && g.attempts_jumped == 0,
            why,
        ),
        Feed::Cuts { pool: false, .. } if !cfg.eager => ensure(g == b, why),
        Feed::Cuts { pool: true, .. } if !cfg.eager => ensure(searches(g) == searches(b), why),
        _ => Ok(()),
    }
}

/// Run `st` on stdin at K = 1 (the reference), line by line at K = 1 and
/// under `plan`; return the reference's output or the first failure.
fn verify(st: &Stream, plan: &[Config]) -> Result<String, (Config, String)> {
    let stdin = Config {
        feed: Feed::Stdin,
        ..LINES
    };
    let want = run(st, &stdin);
    let fault = want.fault.clone();
    fault.map_or(Ok(()), Err).map_err(|e| (stdin, e))?;
    let mut twins: Vec<Option<Run>> = vec![None; 5];
    for cfg in std::iter::once(&LINES).chain(plan) {
        let (k, plain) = (cfg.k as usize, Config { k: cfg.k, ..LINES });
        if twins[k].is_none() {
            let twin = run(st, &plain);
            let probes = twins[1].as_ref().map_or(&twin.probes, |one| &one.probes);
            let same_probes = ensure(&twin.probes == probes, || "reserve replies differ".into());
            let judged = judge(st, &plain, &twin, &want, &want).and(same_probes);
            judged.map_err(|e| (plain, e))?;
            twins[k] = Some(twin);
        }
        if !cfg.plain() {
            let got = run(st, cfg);
            let twin = twins[k].as_ref().unwrap();
            judge(st, cfg, &got, twin, &want).map_err(|e| (*cfg, e))?;
        }
    }
    Ok(want.text)
}

/// Greedily shrink a stream failing under `cfg`: drop runs of lines, halve
/// integers, until neither changes it.
fn shrink(st: &Stream, cfg: Config) -> Stream {
    let with = |lines: &Vec<String>| Stream {
        lines: lines.clone(),
        ..st.clone()
    };
    let fails = |lines: &Vec<String>| verify(&with(lines), &[cfg]).is_err();
    let mut lines = st.lines.clone();
    loop {
        let start = lines.clone();
        let mut chunk = lines.len().div_ceil(2);
        while chunk > 0 {
            let mut i = 0;
            while i < lines.len() {
                let mut fewer = lines.clone();
                fewer.drain(i..(i + chunk).min(lines.len()));
                match fails(&fewer) {
                    true => lines = fewer,
                    false => i += chunk,
                }
            }
            chunk /= 2;
        }
        for i in 0..lines.len() {
            for j in 0..lines[i].split(' ').count() {
                loop {
                    let mut w: Vec<String> = lines[i].split(' ').map(String::from).collect();
                    match w[j].parse::<i64>() {
                        Ok(v) if v != 0 => w[j] = (v / 2).to_string(),
                        _ => break,
                    }
                    let mut smaller = lines.clone();
                    smaller[i] = w.join(" ");
                    if !fails(&smaller) {
                        break;
                    }
                    lines = smaller;
                }
            }
        }
        if lines == start {
            return with(&lines);
        }
    }
}

/// Verify `st`; on a failure, shrink it and panic with a replayable script.
fn check(st: &Stream, plan: &[Config], name: &str) -> String {
    let (cfg, _) = match verify(st, plan) {
        Ok(text) => return text,
        Err(failure) => failure,
    };
    let small = shrink(st, cfg);
    let (cfg, why) = verify(&small, &[cfg]).expect_err("a shrunk stream still fails");
    let (k, script) = (cfg.k, small.script());
    let mut report = format!(
        "{name}: {why}\nunder {cfg:?}\nshrunk from {} to {} lines; replay with \
         `coallocd --shards {k}` on stdin and compare with `--shards 1`:\n{script}",
        st.lines.len(),
        small.lines.len(),
    );
    for b in st.bases.iter().filter(|b| script.contains(&b.path)) {
        report += &format!("where {} holds:\n{}", b.path, b.text());
    }
    panic!("{report}");
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("coalloc-spine-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Scripts that once failed or pin replies, each with reply lines it must
/// hold (as many times as listed).
const REGRESSIONS: &[(&str, &str, &[&str])] = &[
    (
        // The one case the old property tests recorded.
        "nine-request regression",
        "init 4 10 400 10\n\
         advance 15\nsubmit 15 77 41 2\nadvance 33\nsubmit 33 34 44 3\n\
         advance 35\nsubmit 35 35 63 3\nadvance 51\nsubmit 51 63 15 3\n\
         advance 65\nsubmit 65 93 35 2\nadvance 69\nsubmit 69 100 6 3\n\
         advance 86\nsubmit 86 106 35 2\nadvance 102\nsubmit 102 143 49 3\n\
         advance 116\nsubmit 116 211 3 3\n\
         query 116 300\nsnapshot {dir}/s0.snap\n# restart\nload {dir}/s0.snap\nstats\ncheck",
        &["ok 4 servers restored"],
    ),
    (
        // A batch member whose window lies past an earlier member's grant:
        // that grant moved its server's open period up past where the
        // Phase 2 walk stopped, and the member must find it again.
        "moved-up period",
        "init 40 10 400 10\nsubmit 0 147 1 33\nsubmit 0 5 182 15\nadvance 15\n\
         submit 0 334 4 1\nsubmit 0 401 1 1",
        &["granted job=3 start=401 end=402 attempts=1 wait=0 servers=15"],
    ),
    (
        // Over a batch (the two submits after `check`), a period on a
        // server an earlier member took does not count towards a member's
        // `n_r` in the Phase 2 walk.
        "taken servers do not count",
        "init 9 1 50 1\nsubmit 0 23 7 1\nsubmit 0 2 20 7\ncheck\nsubmit 0 0 26 6\nsubmit 0 26 1 1",
        &["granted job=3 start=26 end=27 attempts=1 wait=0 servers=7"],
    ),
    (
        // Every command; starts near i64::MAX are rejections, not panics.
        "every command",
        "init 8 10 400 10\n\
         attrs 2 5\nattrs 5 7\nattrs 6 1\nattrs 9 1\n\
         submit 0 0 50 4\nconstrained 0 0 30 2 5\nconstrained 0 0 30 3 5\n\
         submit 0 100 60 8\ndeadline 0 0 20 2 100\n\
         query 0 50\nquery 60 100\nrelease 0\nadvance 20\n\
         submit 20 20 40 6\nquery 20 60\nsnapshot {dir}/s0.snap\n# restart\ninit 3\n\
         load {dir}/s0.snap\nquery 60 100\nconstrained 20 200 30 1 1\n\
         submit 20 9223372036854775807 10 1\n\
         constrained 20 9223372036854775807 10 1 0\n\
         release 1\nrelease 1\nstats\ncheck",
        &[
            "error: no such server 9",
            "ok 8 servers restored",
            "free 2",
            "rejected request does not fit before the horizon (t=420)",
            "rejected request does not fit before the horizon (t=420)",
        ],
    ),
];

#[test]
fn regressions_agree_everywhere() {
    let dir = scratch("regress");
    let panics = || obs::metrics::counter("net_exec_panics_total").get();
    let panics_before = panics();
    for &(name, script, must) in REGRESSIONS {
        let script = script.replace("{dir}", dir.to_str().unwrap());
        let lines: Vec<String> = script.lines().map(String::from).collect();
        let tags = |l: &String| matches!(verb(l), "attrs" | "constrained" | "deadline");
        let st = Stream::new(lines.clone(), !lines.iter().any(tags), &dir);
        let text = check(&st, &plan(name.len() as u64), name);
        for line in must {
            let times = must.iter().filter(|l| l == &line).count();
            let got = text.lines().filter(|l| l == line).count();
            assert!(
                got >= times,
                "{name}: `{line}` {got}, not {times} times:\n{text}"
            );
        }
    }
    assert_eq!(panics(), panics_before, "a regression script panicked");
    let _ = std::fs::remove_dir_all(dir);
}

/// Run the streams of `seeds`; over them the deferred secondary-tree path
/// must have run and at least 20 grants must span 12 or more servers.
fn generated(seeds: std::ops::Range<u64>, tag: &str) {
    let dir = scratch(tag);
    let deferred = || obs::metrics::counter("ring_batches_deferred_total").get();
    let (before, mut wide) = (deferred(), 0);
    for seed in seeds {
        let text = check(&generate(seed, &dir), &plan(seed), &format!("seed {seed}"));
        let grants = text.lines().filter(|l| l.starts_with("granted "));
        wide += grants.filter(|l| l.matches(',').count() >= 11).count();
    }
    assert!(deferred() > before, "no ring batch took the deferred path");
    assert!(wide >= 20, "only {wide} grants of 12 or more servers");
    let metrics = Session::new(1).exec("metrics").unwrap();
    assert!(
        metrics.contains("ring_batch_ops_count "),
        "no ring_batch_ops"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn generated_streams_agree_everywhere() {
    generated(0..60, "a");
}

#[test]
fn more_generated_streams_agree_everywhere() {
    generated(60..120, "b");
}
