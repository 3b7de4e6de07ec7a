//! Crash-safe sweep orchestrator: checkpoint/resume, per-cell isolation,
//! timeouts, and streaming results.
//!
//! Every grid in the suite runs through [`run_sweep`]: the paper figures
//! and Table II, the ablations, and the scale, fabric, validate, faults and
//! explain sweeps. The grid is broken into independent *cells*, each
//! identified by a stable content hash of its configuration, executed by a
//! work-stealing pool with every cell wrapped in `catch_unwind` plus an
//! optional wall-clock timeout. Results stream to an append-only JSONL
//! *ledger* (`<dir>/<sweep>.cells.jsonl`, fsync'd per line) as cells
//! complete, so a crash, kill, or Ctrl-C loses at most the cells still in
//! flight. Re-running with `resume` reads the ledger back: completed cells
//! are loaded instead of re-executed and land byte-identical in the merged
//! output (results are keyed by input index, so merge order never depends
//! on scheduling).
//!
//! A failed cell degrades to a typed [`CellOutcome`] instead of poisoning
//! the sweep; the caller inspects [`SweepOutcome`] after the queue drains
//! and decides the exit-code story (see `bin/repro`). Final merged JSON
//! artifacts are written with [`write_atomic`] (temp file + rename) so a
//! torn artifact can never be observed.
//!
//! ## Ledger format (version 1)
//!
//! Line 1 is a header binding the file to a sweep *and* its configuration:
//!
//! ```json
//! {"sweep":"fabric","context":"9f2c66...","version":1}
//! ```
//!
//! `context` is the FNV-1a hash of a caller-supplied context string (the
//! serialized experiment config plus anything else that changes cell
//! semantics), so a ledger written by `--quick` can never satisfy a full
//! run. Each subsequent line is one completed attempt:
//!
//! ```json
//! {"cell":"ab12...","label":"oversub=4,policy=FIFO","outcome":"Ok","wall_secs":1.25,"result":{...}}
//! ```
//!
//! A torn final line (the crash case) is tolerated on read and truncated
//! away before appending resumes. Failed attempts are recorded too (for
//! post-mortems) but never loaded — a resume retries them.

use serde::{Deserialize, Serialize, Value};
use simcore::{CellOutcome, MonotonicTimer};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fs;
use std::io::{IsTerminal, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// On-disk ledger format version; bumped on incompatible changes.
pub const LEDGER_VERSION: u32 = 1;

/// Environment variable for test-only fault injection: set to
/// `"<sweep>:<index>"` to make that cell panic when it executes. Used by
/// the `scripts/check.sh` resume smoke; has no effect on cells loaded from
/// a ledger (they never execute).
pub const INJECT_PANIC_ENV: &str = "TL_SWEEP_PANIC_AT";

// ---------------------------------------------------------------------------
// SIGINT
// ---------------------------------------------------------------------------

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_sigint(_sig: i32) {
    // Only async-signal-safe operations here: one atomic store, plus
    // re-arming SIGINT to the default disposition so a second Ctrl-C
    // force-kills a sweep stuck in a hung cell.
    INTERRUPTED.store(true, Ordering::SeqCst);
    unsafe {
        signal(SIGINT, 0); // SIG_DFL
    }
}

#[cfg(unix)]
const SIGINT: i32 = 2;

#[cfg(unix)]
extern "C" {
    // From the C runtime every binary already links; avoids a libc crate
    // dependency for the one call we need.
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Install a SIGINT handler that asks running sweeps to stop dispatching
/// new cells. In-flight cells finish and their ledger entries flush before
/// [`run_sweep`] returns, so Ctrl-C is always resumable; a second Ctrl-C
/// restores the default disposition and kills the process. No-op on
/// non-Unix platforms.
pub fn install_sigint_handler() {
    #[cfg(unix)]
    unsafe {
        signal(SIGINT, on_sigint as *const () as usize);
    }
}

/// True once SIGINT has been received (or [`set_interrupted`] called).
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

/// Force the interrupt flag; tests use this to exercise the skip path
/// without delivering a real signal.
#[doc(hidden)]
pub fn set_interrupted(v: bool) {
    INTERRUPTED.store(v, Ordering::SeqCst);
}

// ---------------------------------------------------------------------------
// Hashing and atomic writes
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit over `bytes`, rendered as fixed-width hex. Stable across
/// platforms and releases — cell identity is part of the ledger format.
pub fn content_hash(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Write `contents` to `path` via a temp file in the same directory,
/// fsync, then atomic rename — a crash mid-write can never leave a torn
/// or truncated artifact at `path`. Creates parent directories.
pub fn write_atomic(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        fs::create_dir_all(dir)?;
    }
    let file_name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other("write_atomic: path has no file name"))?;
    let tmp = path.with_file_name(format!(
        ".{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let mut f = fs::File::create(&tmp)?;
    f.write_all(contents)?;
    f.sync_all()?;
    drop(f);
    match fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

// ---------------------------------------------------------------------------
// Options, records, outcomes
// ---------------------------------------------------------------------------

/// Knobs for one [`run_sweep`] call.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads; `None` uses the available core count.
    pub workers: Option<usize>,
    /// Wall-clock budget per cell; a cell past it is abandoned and
    /// recorded as [`CellOutcome::TimedOut`]. `None` disables.
    pub cell_timeout: Option<Duration>,
    /// Stop dispatching new cells once more than this many have failed
    /// (panicked or timed out); the rest are recorded as skipped.
    /// `None` disables the budget.
    pub max_failures: Option<usize>,
    /// Directory for the `<sweep>.cells.jsonl` ledger. `None` runs the
    /// sweep without checkpointing — the default, which tests use.
    pub ledger_dir: Option<PathBuf>,
    /// Load completed cells from an existing ledger instead of re-running
    /// them. Without this flag an existing ledger is overwritten.
    pub resume: bool,
    /// Emit a progress/ETA line to stderr as cells complete.
    pub progress: bool,
}

/// What happened to one cell of a sweep, for reports and the ledger.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellRecord {
    /// Stable content hash identifying the cell within its sweep.
    pub cell: String,
    /// Human-readable cell key, e.g. `"oversub=4,policy=FIFO"`.
    pub label: String,
    /// How the attempt ended.
    pub outcome: CellOutcome,
    /// Wall-clock seconds the attempt took (the *original* attempt, for
    /// cells loaded from a ledger).
    pub wall_secs: f64,
    /// True if this cell was loaded from the ledger instead of executed.
    pub from_ledger: bool,
}

/// Everything [`run_sweep`] produced: surviving rows plus the per-cell
/// audit trail the failure report and exit codes are built from.
#[derive(Debug)]
pub struct SweepOutcome<R> {
    /// Sweep name (ledger file stem).
    pub sweep: String,
    /// Results of cells that completed, in input order.
    pub rows: Vec<R>,
    /// One record per cell, in input order.
    pub cells: Vec<CellRecord>,
    /// The ledger path, when checkpointing was enabled.
    pub ledger_path: Option<PathBuf>,
}

impl<R> SweepOutcome<R> {
    /// Cells that panicked or timed out.
    pub fn failures(&self) -> Vec<&CellRecord> {
        self.cells.iter().filter(|c| c.outcome.is_failure()).collect()
    }

    /// Number of cells never attempted (interrupt / failure budget).
    pub fn skipped(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, CellOutcome::Skipped))
            .count()
    }

    /// True when every cell completed.
    pub fn all_ok(&self) -> bool {
        self.cells.iter().all(|c| c.outcome.is_ok())
    }

    /// One formatted line per non-ok cell, for the end-of-run failure
    /// report: `"[sweep] label — outcome"`.
    pub fn failure_lines(&self) -> Vec<String> {
        self.cells
            .iter()
            .filter(|c| !c.outcome.is_ok())
            .map(|c| format!("[{}] {} — {}", self.sweep, c.label, c.outcome))
            .collect()
    }

    /// Panic if any cell failed or was skipped, quoting the first such
    /// cell in input order (deterministic however the workers raced).
    /// Figures, tables and ablations end with this: they need every cell
    /// to build their result, and `repro` records the panic as a failure
    /// after the finished cells are checkpointed.
    pub fn expect_complete(self) -> Vec<R> {
        if let Some(line) = self.failure_lines().first() {
            panic!("sweep cell failed: {line}");
        }
        self.rows
    }
}

// ---------------------------------------------------------------------------
// Ledger
// ---------------------------------------------------------------------------

#[derive(Debug, Serialize, Deserialize)]
struct LedgerHeader {
    sweep: String,
    context: String,
    version: u32,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct LedgerLine {
    cell: String,
    label: String,
    outcome: CellOutcome,
    wall_secs: f64,
    result: Option<Value>,
}

/// Parse a ledger, tolerating a torn final line. Returns the valid entries
/// in file order; empty when the file is missing or its header does not
/// match `(sweep, context)` (stale ledgers are discarded, not trusted).
fn read_ledger(path: &Path, sweep: &str, context: &str) -> Vec<LedgerLine> {
    let Ok(contents) = fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut lines = contents.lines();
    let Some(first) = lines.next() else {
        return Vec::new();
    };
    let header: LedgerHeader = match serde_json::from_str(first) {
        Ok(h) => h,
        Err(_) => return Vec::new(),
    };
    if header.sweep != sweep || header.context != context || header.version != LEDGER_VERSION {
        return Vec::new();
    }
    let mut out = Vec::new();
    for line in lines {
        match serde_json::from_str::<LedgerLine>(line) {
            Ok(entry) => out.push(entry),
            // A torn tail is the expected crash artifact; everything
            // before it is intact because appends are line-atomic.
            Err(_) => break,
        }
    }
    out
}

struct LedgerWriter {
    file: fs::File,
}

impl LedgerWriter {
    fn append(&mut self, line: &LedgerLine) {
        let mut text = serde_json::to_string(line).expect("ledger line serializes");
        text.push('\n');
        // Failures to checkpoint must not kill the sweep — the run is
        // still correct, just not resumable past this point.
        if self.file.write_all(text.as_bytes()).is_err() {
            eprintln!("warning: ledger append failed; cell not checkpointed");
            return;
        }
        let _ = self.file.flush();
        let _ = self.file.sync_data();
    }
}

/// Rewrite the ledger to exactly `header` + `entries` (atomic), then open
/// it for appending. This heals torn tails and stale headers in one step.
fn open_ledger(path: &Path, header: &LedgerHeader, entries: &[LedgerLine]) -> Option<LedgerWriter> {
    let mut contents = serde_json::to_string(header).expect("ledger header serializes");
    contents.push('\n');
    for e in entries {
        contents.push_str(&serde_json::to_string(e).expect("ledger line serializes"));
        contents.push('\n');
    }
    if let Err(e) = write_atomic(path, contents.as_bytes()) {
        eprintln!("warning: cannot write sweep ledger {}: {e}", path.display());
        return None;
    }
    match fs::OpenOptions::new().append(true).open(path) {
        Ok(file) => Some(LedgerWriter { file }),
        Err(e) => {
            eprintln!("warning: cannot append to sweep ledger {}: {e}", path.display());
            None
        }
    }
}

// ---------------------------------------------------------------------------
// Progress
// ---------------------------------------------------------------------------

struct Progress {
    sweep: String,
    total: usize,
    done: usize,
    failed: usize,
    executed: usize,
    executed_wall: f64,
    workers: usize,
    tty: bool,
}

impl Progress {
    fn report(&mut self, wall_secs: Option<f64>, failed: bool) {
        self.done += 1;
        if failed {
            self.failed += 1;
        }
        if let Some(w) = wall_secs {
            self.executed += 1;
            self.executed_wall += w;
        }
        let remaining = self.total - self.done;
        let eta = if self.executed > 0 && remaining > 0 {
            let per_cell = self.executed_wall / self.executed as f64;
            format!("{:.0}s", per_cell * remaining as f64 / self.workers.max(1) as f64)
        } else {
            "--".to_string()
        };
        let line = format!(
            "[{}] {}/{} cells done, {} failed, {} remaining, ETA {}",
            self.sweep, self.done, self.total, self.failed, remaining, eta
        );
        if self.tty {
            eprint!("\r{line}\x1b[K");
            if remaining == 0 {
                eprintln!();
            }
        } else {
            eprintln!("{line}");
        }
    }
}

// ---------------------------------------------------------------------------
// run_sweep
// ---------------------------------------------------------------------------

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn injected_panic_index(sweep: &str) -> Option<usize> {
    let spec = std::env::var(INJECT_PANIC_ENV).ok()?;
    let (name, idx) = spec.split_once(':')?;
    if name != sweep {
        return None;
    }
    idx.parse().ok()
}

/// Run one cell, honoring the timeout. With a timeout the cell runs on a
/// detached thread and is *abandoned* (the thread keeps spinning until
/// process exit) when the deadline passes — the only portable way to bound
/// a hung computation without killing the process.
fn execute_cell<C, R, F>(
    f: &Arc<F>,
    idx: usize,
    cell: C,
    inject: Option<usize>,
    timeout: Option<Duration>,
) -> Result<R, CellOutcome>
where
    C: Send + 'static,
    R: Send + 'static,
    F: Fn(C) -> R + Send + Sync + 'static,
{
    let body = {
        let f = Arc::clone(f);
        move || {
            if inject == Some(idx) {
                panic!("injected test fault ({INJECT_PANIC_ENV}) in cell {idx}");
            }
            f(cell)
        }
    };
    match timeout {
        None => catch_unwind(AssertUnwindSafe(body))
            .map_err(|p| CellOutcome::Panicked { msg: panic_message(p) }),
        Some(limit) => {
            let (tx, rx) = mpsc::channel();
            std::thread::Builder::new()
                .name(format!("sweep-cell-{idx}"))
                .spawn(move || {
                    let result = catch_unwind(AssertUnwindSafe(body)).map_err(panic_message);
                    let _ = tx.send(result);
                })
                .expect("spawn sweep cell thread");
            match rx.recv_timeout(limit) {
                Ok(Ok(r)) => Ok(r),
                Ok(Err(msg)) => Err(CellOutcome::Panicked { msg }),
                Err(_) => Err(CellOutcome::TimedOut),
            }
        }
    }
}

/// Execute a sweep through the orchestrator.
///
/// * `sweep` — stable name; the ledger file is `<dir>/<sweep>.cells.jsonl`.
/// * `context` — everything that changes cell semantics beyond the cell key
///   (serialized config, iteration counts, …); hashed into cell identity so
///   mismatched ledgers are discarded rather than trusted.
/// * `cells` — the grid, in deterministic order (results merge by index).
/// * `key` — stable human-readable identity of one cell *within* the
///   context; hashed with the context into the cell id. Keys must be
///   unique.
/// * `f` — executes one cell. Panics are caught per cell.
pub fn run_sweep<C, R, F>(
    sweep: &str,
    context: &str,
    opts: &SweepOptions,
    cells: Vec<C>,
    key: impl Fn(&C) -> String,
    f: F,
) -> SweepOutcome<R>
where
    C: Send + 'static,
    R: Serialize + Deserialize + Send + 'static,
    F: Fn(C) -> R + Send + Sync + 'static,
{
    let context_hash = content_hash(format!("{sweep}\u{0}{context}").as_bytes());
    let labels: Vec<String> = cells.iter().map(&key).collect();
    let ids: Vec<String> = labels
        .iter()
        .map(|l| content_hash(format!("{context_hash}\u{0}{l}").as_bytes()))
        .collect();
    {
        let mut seen = HashSet::new();
        for (label, id) in labels.iter().zip(&ids) {
            assert!(seen.insert(id.clone()), "duplicate sweep cell key: {label}");
        }
    }

    let total = cells.len();
    let ledger_path = opts
        .ledger_dir
        .as_ref()
        .map(|d| d.join(format!("{sweep}.cells.jsonl")));

    // Resume: load valid prior entries, keep only usable Ok results.
    let mut prior: Vec<LedgerLine> = Vec::new();
    if let (Some(path), true) = (&ledger_path, opts.resume) {
        prior = read_ledger(path, sweep, &context_hash);
    }
    let mut loaded: HashMap<String, LedgerLine> = HashMap::new();
    for line in &prior {
        if line.outcome.is_ok() && line.result.is_some() {
            // Last entry wins if a cell somehow appears twice.
            loaded.insert(line.cell.clone(), line.clone());
        }
    }

    let ledger = ledger_path.as_ref().and_then(|path| {
        let header = LedgerHeader {
            sweep: sweep.to_string(),
            context: context_hash.clone(),
            version: LEDGER_VERSION,
        };
        open_ledger(path, &header, &prior).map(Mutex::new)
    });

    // Slot in resumed results; queue the rest.
    let mut row_slots: Vec<Option<R>> = (0..total).map(|_| None).collect();
    let mut record_slots: Vec<Option<CellRecord>> = (0..total).map(|_| None).collect();
    let mut pending: VecDeque<(usize, C)> = VecDeque::new();
    let mut resumed = 0usize;
    for (idx, cell) in cells.into_iter().enumerate() {
        if let Some(entry) = loaded.get(&ids[idx]) {
            match R::from_value(entry.result.as_ref().expect("ok entries carry a result")) {
                Ok(row) => {
                    row_slots[idx] = Some(row);
                    record_slots[idx] = Some(CellRecord {
                        cell: ids[idx].clone(),
                        label: labels[idx].clone(),
                        outcome: CellOutcome::Ok,
                        wall_secs: entry.wall_secs,
                        from_ledger: true,
                    });
                    resumed += 1;
                    continue;
                }
                Err(e) => {
                    eprintln!(
                        "warning: ledger entry for cell {} does not decode ({e:?}); re-running",
                        labels[idx]
                    );
                }
            }
        }
        pending.push_back((idx, cell));
    }

    let workers = opts
        .workers
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
        })
        .max(1)
        .min(pending.len().max(1));

    let progress = opts.progress.then(|| {
        let mut p = Progress {
            sweep: sweep.to_string(),
            total,
            done: 0,
            failed: 0,
            executed: 0,
            executed_wall: 0.0,
            workers,
            tty: std::io::stderr().is_terminal(),
        };
        if resumed > 0 {
            eprintln!("[{sweep}] resumed {resumed}/{total} cells from ledger");
            p.done = resumed;
        }
        Mutex::new(p)
    });

    let inject = injected_panic_index(sweep);
    let f = Arc::new(f);
    let queue = Mutex::new(pending);
    let failures = std::sync::atomic::AtomicUsize::new(0);
    let done = Mutex::new(Vec::<(usize, Option<R>, CellRecord)>::new());

    std::thread::scope(|s| {
        for _ in 0..workers {
            let queue = &queue;
            let failures = &failures;
            let done = &done;
            let ledger = &ledger;
            let progress = &progress;
            let ids = &ids;
            let labels = &labels;
            let f = Arc::clone(&f);
            let timeout = opts.cell_timeout;
            let max_failures = opts.max_failures;
            s.spawn(move || loop {
                if interrupted() {
                    return;
                }
                if let Some(max) = max_failures {
                    if failures.load(Ordering::SeqCst) > max {
                        return;
                    }
                }
                let Some((idx, cell)) = queue
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .pop_front()
                else {
                    return;
                };
                let timer = MonotonicTimer::start();
                let result = execute_cell(&f, idx, cell, inject, timeout);
                let wall_secs = timer.elapsed_secs();
                let (outcome, row, value) = match result {
                    Ok(row) => {
                        let value = ledger.is_some().then(|| row.to_value());
                        (CellOutcome::Ok, Some(row), value)
                    }
                    Err(outcome) => {
                        failures.fetch_add(1, Ordering::SeqCst);
                        (outcome, None, None)
                    }
                };
                if let Some(ledger) = ledger {
                    ledger.lock().unwrap_or_else(|e| e.into_inner()).append(&LedgerLine {
                        cell: ids[idx].clone(),
                        label: labels[idx].clone(),
                        outcome: outcome.clone(),
                        wall_secs,
                        result: value,
                    });
                }
                if let Some(p) = progress {
                    p.lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .report(Some(wall_secs), !outcome.is_ok());
                }
                let record = CellRecord {
                    cell: ids[idx].clone(),
                    label: labels[idx].clone(),
                    outcome,
                    wall_secs,
                    from_ledger: false,
                };
                done.lock().unwrap_or_else(|e| e.into_inner()).push((idx, row, record));
            });
        }
    });

    for (idx, row, record) in done.into_inner().unwrap_or_else(|e| e.into_inner()) {
        row_slots[idx] = row;
        record_slots[idx] = Some(record);
    }
    // Anything left in the queue was never attempted.
    for (idx, _) in queue.into_inner().unwrap_or_else(|e| e.into_inner()) {
        record_slots[idx] = Some(CellRecord {
            cell: ids[idx].clone(),
            label: labels[idx].clone(),
            outcome: CellOutcome::Skipped,
            wall_secs: 0.0,
            from_ledger: false,
        });
    }

    let rows = row_slots.into_iter().flatten().collect();
    let cells = record_slots
        .into_iter()
        .map(|r| r.expect("every cell has a record"))
        .collect();
    SweepOutcome {
        sweep: sweep.to_string(),
        rows,
        cells,
        ledger_path,
    }
}

/// Run one unit of work that is not a sweep cell (a whole report block in
/// `repro`, such as a figure whose sweep failed a cell) with the same
/// isolation contract as a cell: panics are caught and recorded instead
/// of aborting the run, and a pending interrupt skips the work. No
/// timeout — the closure need not be `'static`.
pub fn run_isolated<T>(name: &str, f: impl FnOnce() -> T) -> (Option<T>, CellRecord) {
    let id = content_hash(name.as_bytes());
    if interrupted() {
        return (
            None,
            CellRecord {
                cell: id,
                label: name.to_string(),
                outcome: CellOutcome::Skipped,
                wall_secs: 0.0,
                from_ledger: false,
            },
        );
    }
    let timer = MonotonicTimer::start();
    let result = catch_unwind(AssertUnwindSafe(f));
    let wall_secs = timer.elapsed_secs();
    match result {
        Ok(value) => (
            Some(value),
            CellRecord {
                cell: id,
                label: name.to_string(),
                outcome: CellOutcome::Ok,
                wall_secs,
                from_ledger: false,
            },
        ),
        Err(payload) => (
            None,
            CellRecord {
                cell: id,
                label: name.to_string(),
                outcome: CellOutcome::Panicked { msg: panic_message(payload) },
                wall_secs,
                from_ledger: false,
            },
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_is_stable() {
        // Fixed vectors: the hash is part of the on-disk ledger format.
        assert_eq!(content_hash(b""), "cbf29ce484222325");
        assert_eq!(content_hash(b"a"), "af63dc4c8601ec8c");
        assert_ne!(content_hash(b"scale"), content_hash(b"fabric"));
    }

    #[test]
    fn write_atomic_round_trips_and_replaces() {
        let dir = std::env::temp_dir().join(format!("tl-orch-wa-{}", std::process::id()));
        let path = dir.join("nested/out.json");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        // No temp litter left behind.
        let leftovers: Vec<_> = fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ephemeral_sweep_isolates_panics_and_keeps_order() {
        let out: SweepOutcome<i64> = run_sweep(
            "unit-panic",
            "ctx",
            &SweepOptions::default(),
            (0..8).collect(),
            |c| format!("cell={c}"),
            |c: i64| {
                if c == 3 {
                    panic!("cell three exploded");
                }
                c * 10
            },
        );
        assert_eq!(out.rows, vec![0, 10, 20, 40, 50, 60, 70]);
        assert_eq!(out.cells.len(), 8);
        assert!(matches!(out.cells[3].outcome, CellOutcome::Panicked { .. }));
        assert!(out.cells.iter().enumerate().all(|(i, c)| i == 3 || c.outcome.is_ok()));
        let lines = out.failure_lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("cell three exploded"), "{lines:?}");
    }

    #[test]
    fn timeout_abandons_hung_cell_and_finishes_siblings() {
        let opts = SweepOptions {
            cell_timeout: Some(Duration::from_millis(50)),
            workers: Some(2),
            ..SweepOptions::default()
        };
        let out: SweepOutcome<u32> = run_sweep(
            "unit-timeout",
            "ctx",
            &opts,
            vec![0u32, 1, 2, 3],
            |c| format!("cell={c}"),
            |c: u32| {
                if c == 1 {
                    std::thread::sleep(Duration::from_secs(5));
                }
                c
            },
        );
        assert_eq!(out.rows, vec![0, 2, 3]);
        assert!(matches!(out.cells[1].outcome, CellOutcome::TimedOut));
        assert_eq!(out.failures().len(), 1);
    }

    #[test]
    fn max_failures_skips_remaining_cells() {
        let opts = SweepOptions {
            workers: Some(1),
            max_failures: Some(0),
            ..SweepOptions::default()
        };
        let out: SweepOutcome<u32> = run_sweep(
            "unit-budget",
            "ctx",
            &opts,
            (0..6).collect(),
            |c| format!("cell={c}"),
            |c: u32| {
                if c == 2 {
                    panic!("budget breaker");
                }
                c
            },
        );
        assert_eq!(out.rows, vec![0, 1]);
        assert_eq!(out.skipped(), 3, "cells after the failure are skipped: {:?}", out.cells);
        assert!(!out.all_ok());
    }

    #[test]
    fn expect_complete_panics_on_failure() {
        let out: SweepOutcome<u32> = run_sweep(
            "unit-expect",
            "ctx",
            &SweepOptions::default(),
            vec![0u32, 1],
            |c| format!("cell={c}"),
            |c: u32| {
                if c == 1 {
                    panic!("nope");
                }
                c
            },
        );
        let err = catch_unwind(AssertUnwindSafe(|| out.expect_complete()))
            .expect_err("must re-raise");
        assert!(panic_message(err).contains("nope"));
    }

    #[test]
    fn expect_complete_quotes_the_lowest_failed_cell() {
        // With several failing cells the quoted one must not depend on
        // which worker finished first: the lowest input index wins, and
        // every other cell still runs before the panic is raised.
        use std::sync::atomic::AtomicUsize;
        for round in 0..24 {
            let ran = Arc::new(AtomicUsize::new(0));
            let counter = Arc::clone(&ran);
            let out: SweepOutcome<u32> = run_sweep(
                "unit-lowest",
                "ctx",
                &SweepOptions {
                    workers: Some(4),
                    ..SweepOptions::default()
                },
                (0..64).collect(),
                |c| format!("cell={c}"),
                move |c: u32| {
                    if c == 7 || c == 23 || c == 55 {
                        panic!("boom at {c}");
                    }
                    counter.fetch_add(1, Ordering::SeqCst);
                    c
                },
            );
            let err = catch_unwind(AssertUnwindSafe(|| out.expect_complete()))
                .expect_err("failed cells must re-raise");
            let msg = panic_message(err);
            assert!(
                msg.contains("cell=7 ") && msg.contains("boom at 7"),
                "round {round}: expected the lowest failed cell, got {msg}"
            );
            assert_eq!(ran.load(Ordering::SeqCst), 61, "round {round}: queue drained");
        }
    }

    #[test]
    fn run_isolated_catches_and_labels() {
        let (ok, rec) = run_isolated("unit-iso-ok", || 42);
        assert_eq!(ok, Some(42));
        assert!(rec.outcome.is_ok());
        let (none, rec): (Option<()>, _) = run_isolated("unit-iso-bad", || panic!("iso boom"));
        assert!(none.is_none());
        assert!(matches!(&rec.outcome, CellOutcome::Panicked { msg } if msg.contains("iso boom")));
    }
}
