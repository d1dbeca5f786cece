//! Durable replica storage: an append-only write-ahead log with explicit
//! fsync points, plus point-in-time snapshots of the applied state.
//!
//! The crash model is the classic one: everything in volatile memory is
//! lost, everything **synced** to the log survives, and records appended
//! but not yet synced may vanish. [`Wal::crash`] models exactly that
//! boundary, so recovery code can be tested against the worst case (the
//! unsynced tail is always lost) without an actual `kill -9`.
//!
//! A [`Snapshot`] captures the applied state machine together with the
//! exact command prefix that produced it; [`Durability`] combines the two,
//! compacting the log whenever a new snapshot subsumes old records.
//! [`Replica::restore`](crate::Replica) replays snapshot + WAL after a
//! [`CrashMode::Restart`](dex_simnet::CrashMode) window and re-derives a
//! committed prefix byte-identical to what it had persisted before dying.

use crate::log::ReplicatedLog;
use crate::machine::StateMachine;
use crate::Command;
use dex_types::Value;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// One durable record: slot `slot` decided `value`.
///
/// A single variant today; an enum so future records (view changes,
/// reconfigurations) extend the format instead of replacing it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WalRecord<C> {
    /// Consensus instance `slot` committed `value` at this replica.
    Commit {
        /// The log slot.
        slot: u64,
        /// The committed command.
        value: C,
    },
}

/// An append-only write-ahead log with explicit fsync points.
///
/// [`append`](Wal::append) only buffers; [`sync`](Wal::sync) is the fsync
/// point that makes buffered records durable. [`crash`](Wal::crash)
/// simulates the process dying: the buffered-but-unsynced tail vanishes,
/// the synced prefix survives.
pub trait Wal<C>: Send {
    /// Buffers one record (volatile until the next [`sync`](Wal::sync)).
    fn append(&mut self, record: WalRecord<C>);

    /// Fsync point: makes every buffered record durable, in append order.
    fn sync(&mut self);

    /// The durable records, in append order (buffered records excluded —
    /// they would not survive a crash, so recovery must not see them).
    fn replay(&self) -> Vec<WalRecord<C>>;

    /// Replaces the entire durable content with `retain` (synced). Called
    /// after a snapshot subsumes the records before it.
    fn compact(&mut self, retain: Vec<WalRecord<C>>);

    /// Simulates the process dying: drops the unsynced tail. Durable
    /// records are untouched.
    fn crash(&mut self);
}

/// In-memory [`Wal`]: models the durable/volatile boundary without
/// touching the filesystem — the simulator's default backing store.
#[derive(Clone, Debug, Default)]
pub struct MemWal<C> {
    durable: Vec<WalRecord<C>>,
    buffered: Vec<WalRecord<C>>,
    syncs: u64,
}

impl<C> MemWal<C> {
    /// Creates an empty log.
    pub fn new() -> Self {
        MemWal {
            durable: Vec::new(),
            buffered: Vec::new(),
            syncs: 0,
        }
    }

    /// Number of appended-but-unsynced records (would be lost by a crash).
    pub fn unsynced_len(&self) -> usize {
        self.buffered.len()
    }

    /// Number of fsync points so far.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }
}

impl<C: Value> Wal<C> for MemWal<C> {
    fn append(&mut self, record: WalRecord<C>) {
        self.buffered.push(record);
    }

    fn sync(&mut self) {
        self.durable.append(&mut self.buffered);
        self.syncs += 1;
    }

    fn replay(&self) -> Vec<WalRecord<C>> {
        self.durable.clone()
    }

    fn compact(&mut self, retain: Vec<WalRecord<C>>) {
        self.durable = retain;
        self.buffered.clear();
    }

    fn crash(&mut self) {
        self.buffered.clear();
    }
}

/// Line codec for commands stored in a [`FileWal`].
///
/// Hand-rolled (no serde in the dependency tree, and the format must stay
/// byte-stable): one record per line, so an encoding must not contain
/// `'\n'`. `decode` is total — corrupt lines yield `None` and recovery
/// stops at the first undecodable record, which is exactly the torn-tail
/// semantics of a real log.
pub trait WalCodec: Sized {
    /// Encodes the command as a single line fragment (no newlines).
    fn encode(&self) -> String;

    /// Decodes what [`encode`](WalCodec::encode) produced.
    fn decode(s: &str) -> Option<Self>;
}

impl WalCodec for Command {
    fn encode(&self) -> String {
        match self {
            Command::Noop => "noop".to_string(),
            Command::Delete { key } => format!("del {key}"),
            Command::Put { key, value } => format!("put {key} {value}"),
            Command::Add { key, delta } => format!("add {key} {delta}"),
        }
    }

    fn decode(s: &str) -> Option<Self> {
        let mut parts = s.split(' ');
        let cmd = match (parts.next()?, parts.next(), parts.next()) {
            ("noop", None, None) => Command::Noop,
            ("del", Some(k), None) => Command::delete(k.parse().ok()?),
            ("put", Some(k), Some(v)) => Command::put(k.parse().ok()?, v.parse().ok()?),
            ("add", Some(k), Some(d)) => Command::add(k.parse().ok()?, d.parse().ok()?),
            _ => return None,
        };
        parts.next().is_none().then_some(cmd)
    }
}

impl WalCodec for u64 {
    fn encode(&self) -> String {
        self.to_string()
    }

    fn decode(s: &str) -> Option<Self> {
        s.parse().ok()
    }
}

/// File-backed [`Wal`]: one `c <slot> <command>` line per record, and only
/// a `\n`-terminated line is one; [`sync`](Wal::sync) flushes buffered
/// lines and calls `fsync`.
///
/// The simulator runs on [`MemWal`]; this impl exists to pin the
/// abstraction to a real durable medium (and is what a deployment would
/// use), with the same buffered/synced semantics.
#[derive(Debug)]
pub struct FileWal<C> {
    path: PathBuf,
    /// Append handle on the log, opened once and reopened only when
    /// [`compact`](Wal::compact) renames a new file over `path`.
    file: std::fs::File,
    buffered: Vec<WalRecord<C>>,
}

impl<C: Value + WalCodec> FileWal<C> {
    /// Opens (or creates) the log at `path`, cutting a torn last line (a
    /// crash mid-append) so the next record starts a line of its own
    /// instead of gluing onto the torn bytes, and removing the
    /// `<path>.compact` a crash mid-compaction leaves behind. The format
    /// is unchanged.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        let leftover = compact_path(&path);
        if leftover.exists() {
            std::fs::remove_file(leftover)?;
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        let content = std::fs::read(&path)?;
        let complete = complete_lines(&content).len();
        if complete < content.len() {
            file.set_len(complete as u64)?;
            file.sync_all()?;
        }
        Ok(FileWal {
            path,
            file,
            buffered: Vec::new(),
        })
    }

    fn encode_record(record: &WalRecord<C>) -> String {
        match record {
            WalRecord::Commit { slot, value } => format!("c {slot} {}\n", value.encode()),
        }
    }

    fn decode_record(line: &str) -> Option<WalRecord<C>> {
        let rest = line.strip_prefix("c ")?;
        let (slot, value) = rest.split_once(' ')?;
        Some(WalRecord::Commit {
            slot: slot.parse().ok()?,
            value: C::decode(value)?,
        })
    }
}

/// Where [`FileWal::compact`] writes the log it renames over `path`.
fn compact_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".compact");
    PathBuf::from(name)
}

/// `bytes` up to and including its last `\n`: the complete lines.
fn complete_lines(bytes: &[u8]) -> &[u8] {
    let end = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    &bytes[..end]
}

impl<C: Value + WalCodec> Wal<C> for FileWal<C> {
    fn append(&mut self, record: WalRecord<C>) {
        self.buffered.push(record);
    }

    fn sync(&mut self) {
        for record in self.buffered.drain(..) {
            self.file
                .write_all(Self::encode_record(&record).as_bytes())
                .expect("wal append failed");
        }
        self.file.sync_all().expect("wal fsync failed");
    }

    fn replay(&self) -> Vec<WalRecord<C>> {
        let Ok(content) = std::fs::read(&self.path) else {
            return Vec::new();
        };
        let mut records = Vec::new();
        // Only `\n`-terminated lines are records: a torn last line may
        // still decode (`c 1 12` from `c 1 123`), to a value nobody decided.
        for line in String::from_utf8_lossy(complete_lines(&content)).lines() {
            // Torn-tail semantics: stop at the first undecodable record.
            match Self::decode_record(line) {
                Some(r) => records.push(r),
                None => break,
            }
        }
        records
    }

    fn compact(&mut self, retain: Vec<WalRecord<C>>) {
        let mut content = String::new();
        for record in &retain {
            content.push_str(&Self::encode_record(record));
        }
        // A new file renamed over the log: a crash leaves the old log or
        // the new one, never a truncated mix, and open readers keep the
        // old bytes.
        let tmp = compact_path(&self.path);
        let mut file = std::fs::File::create(&tmp).expect("wal compaction file");
        file.write_all(content.as_bytes())
            .expect("wal rewrite failed");
        file.sync_all().expect("wal fsync failed");
        std::fs::rename(&tmp, &self.path).expect("wal rename failed");
        // The old handle now appends to the unlinked log.
        self.file = std::fs::OpenOptions::new()
            .append(true)
            .open(&self.path)
            .expect("wal reopen after compaction failed");
        let dir = match self.path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        std::fs::File::open(dir)
            .and_then(|dir| dir.sync_all())
            .expect("wal directory fsync failed");
        self.buffered.clear();
    }

    fn crash(&mut self) {
        self.buffered.clear();
    }
}

/// A point-in-time image of the applied state: the machine **plus** the
/// exact applied command prefix, so a restore can re-derive a log prefix
/// byte-identical to the original (the machine alone cannot — digests are
/// one-way).
#[derive(Clone, Debug)]
pub struct Snapshot<SM: StateMachine> {
    /// The state machine after applying `prefix` in order.
    pub machine: SM,
    /// The applied commands, in slot order (`prefix.len()` = applied
    /// cursor at capture time).
    pub prefix: Vec<SM::Command>,
}

/// A replica's "disk": WAL + latest snapshot + the snapshot cadence.
///
/// Every committed slot is appended **and synced** before the commit is
/// acted on (commit points are fsync points — the conservative policy, and
/// the one that makes restart recovery exact). Snapshots are taken every
/// `snapshot_every` applied slots; each snapshot compacts the WAL down to
/// the records it does not subsume (out-of-order commits above the applied
/// prefix).
pub struct Durability<SM: StateMachine> {
    wal: Box<dyn Wal<SM::Command>>,
    snapshot: Option<Snapshot<SM>>,
    snapshot_every: usize,
}

impl<SM: StateMachine> Durability<SM> {
    /// Wraps a WAL backing store; `snapshot_every = 0` disables snapshots
    /// (recovery replays the full log).
    pub fn new(wal: Box<dyn Wal<SM::Command>>, snapshot_every: usize) -> Self {
        Durability {
            wal,
            snapshot: None,
            snapshot_every,
        }
    }

    /// In-memory store with the default snapshot cadence — what simulated
    /// clusters use.
    pub fn mem(snapshot_every: usize) -> Self {
        Durability::new(Box::new(MemWal::new()), snapshot_every)
    }

    /// The latest snapshot, if one has been taken.
    pub fn snapshot(&self) -> Option<&Snapshot<SM>> {
        self.snapshot.as_ref()
    }

    /// Persists one committed slot: append + fsync.
    pub fn log_commit(&mut self, slot: u64, value: SM::Command) {
        self.wal.append(WalRecord::Commit { slot, value });
        self.wal.sync();
    }

    /// Takes a snapshot if the cadence is due, compacting the WAL down to
    /// the records above the applied prefix.
    pub fn maybe_snapshot(&mut self, log: &ReplicatedLog<SM::Command>, machine: &SM) {
        if self.snapshot_every == 0 {
            return;
        }
        let applied = log.applied();
        let covered = self.snapshot.as_ref().map_or(0, |s| s.prefix.len());
        if applied - covered < self.snapshot_every {
            return;
        }
        let mut prefix = log.prefix();
        prefix.truncate(applied);
        self.snapshot = Some(Snapshot {
            machine: machine.clone(),
            prefix,
        });
        let retain = self
            .wal
            .replay()
            .into_iter()
            .filter(|WalRecord::Commit { slot, .. }| *slot >= applied as u64)
            .collect();
        self.wal.compact(retain);
    }

    /// Crash-recovers the store: the unsynced WAL tail is lost, and the
    /// surviving state — latest snapshot plus durable records — is
    /// returned for replay.
    pub fn recover(&mut self) -> (Option<Snapshot<SM>>, Vec<WalRecord<SM::Command>>) {
        self.wal.crash();
        (self.snapshot.clone(), self.wal.replay())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KvStore;

    #[test]
    fn mem_wal_loses_the_unsynced_tail_on_crash() {
        let mut wal: MemWal<u64> = MemWal::new();
        wal.append(WalRecord::Commit { slot: 0, value: 10 });
        wal.sync();
        wal.append(WalRecord::Commit { slot: 1, value: 20 });
        assert_eq!(wal.unsynced_len(), 1);
        assert_eq!(wal.replay().len(), 1, "unsynced records are not durable");
        wal.crash();
        assert_eq!(wal.replay(), vec![WalRecord::Commit { slot: 0, value: 10 }]);
        assert_eq!(wal.unsynced_len(), 0);
    }

    #[test]
    fn command_codec_round_trips() {
        for cmd in [
            Command::Noop,
            Command::put(7, 70),
            Command::add(3, 9),
            Command::delete(12),
        ] {
            assert_eq!(Command::decode(&cmd.encode()), Some(cmd), "{cmd}");
        }
        assert_eq!(Command::decode("frobnicate 1 2"), None);
        assert_eq!(Command::decode("put 1"), None);
        assert_eq!(Command::decode("noop 3"), None);
    }

    #[test]
    fn file_wal_survives_reopen_and_stops_at_a_torn_tail() {
        let path = std::env::temp_dir().join(format!(
            "dex-wal-test-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        {
            let mut wal: FileWal<Command> = FileWal::open(&path).unwrap();
            wal.append(WalRecord::Commit {
                slot: 0,
                value: Command::put(1, 10),
            });
            wal.append(WalRecord::Commit {
                slot: 1,
                value: Command::add(1, 5),
            });
            wal.sync();
            wal.append(WalRecord::Commit {
                slot: 2,
                value: Command::delete(1),
            });
            // Never synced — a crash (process exit) loses slot 2.
        }
        {
            let wal: FileWal<Command> = FileWal::open(&path).unwrap();
            assert_eq!(
                wal.replay(),
                vec![
                    WalRecord::Commit {
                        slot: 0,
                        value: Command::put(1, 10)
                    },
                    WalRecord::Commit {
                        slot: 1,
                        value: Command::add(1, 5)
                    },
                ]
            );
        }
        // A torn write at the tail must not poison the decodable prefix.
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"c 2 pu").unwrap();
        }
        {
            let wal: FileWal<Command> = FileWal::open(&path).unwrap();
            assert_eq!(wal.replay().len(), 2, "torn tail ignored");
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Syncs `first` as slot 0, appends `torn` (a slot-1 record cut short
    /// by a crash, still decodable), then reopens and syncs `next` as slot
    /// 1: the torn bytes are never a record, and the record after them
    /// survives on a line of its own.
    fn torn_tail_case<C: Value + WalCodec>(tag: &str, first: C, torn: &[u8], next: C) {
        let path =
            std::env::temp_dir().join(format!("dex-wal-torn-{tag}-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let slot0 = WalRecord::Commit {
            slot: 0,
            value: first,
        };
        let mut wal: FileWal<C> = FileWal::open(&path).unwrap();
        wal.append(slot0.clone());
        wal.sync();
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(torn)
            .unwrap();
        assert_eq!(
            wal.replay(),
            vec![slot0.clone()],
            "{tag}: torn line replayed"
        );
        let slot1 = WalRecord::Commit {
            slot: 1,
            value: next,
        };
        let mut wal: FileWal<C> = FileWal::open(&path).unwrap();
        wal.append(slot1.clone());
        wal.sync();
        let wal: FileWal<C> = FileWal::open(&path).unwrap();
        assert_eq!(
            wal.replay(),
            vec![slot0, slot1],
            "{tag}: synced record lost"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_torn_tail_that_decodes_is_not_a_record_and_reopening_cuts_it() {
        // `c 1 123` torn to `c 1 12`; `put 1 10` torn to `put 1 1`.
        torn_tail_case::<u64>("u64", 10, b"c 1 12", 123);
        torn_tail_case(
            "command",
            Command::Noop,
            b"c 1 put 1 1",
            Command::put(1, 10),
        );
    }

    #[test]
    fn compaction_swaps_in_a_new_file_and_an_open_reader_keeps_the_old_bytes() {
        use std::io::Read as _;
        let path = std::env::temp_dir().join(format!("dex-wal-compact-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut wal: FileWal<u64> = FileWal::open(&path).unwrap();
        for slot in 0..4 {
            wal.append(WalRecord::Commit {
                slot,
                value: 10 + slot,
            });
        }
        wal.sync();
        let synced = std::fs::read(&path).unwrap();
        let mut reader = std::fs::File::open(&path).unwrap();
        let kept = WalRecord::Commit { slot: 3, value: 13 };
        wal.compact(vec![kept.clone()]);
        // Rewriting the live file in place (truncate, then write) would
        // show the reader the one-record log; a crash inside it would lose
        // synced records.
        let mut seen = Vec::new();
        reader.read_to_end(&mut seen).unwrap();
        assert_eq!(
            String::from_utf8_lossy(&seen),
            String::from_utf8_lossy(&synced)
        );
        assert_eq!(wal.replay(), vec![kept.clone()]);
        // A compaction cut short leaves `<path>.compact` behind; the
        // next open removes it and keeps the log.
        let leftover = format!("{}.compact", path.display());
        std::fs::write(&leftover, "c 9 9\n").unwrap();
        let wal: FileWal<u64> = FileWal::open(&path).unwrap();
        assert!(!std::path::Path::new(&leftover).exists());
        assert_eq!(wal.replay(), vec![kept]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_record_synced_after_compaction_lands_in_the_compacted_log() {
        let path = std::env::temp_dir().join(format!("dex-wal-handle-{}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let record = |slot| WalRecord::Commit {
            slot,
            value: 10 + slot,
        };
        let mut wal: FileWal<u64> = FileWal::open(&path).unwrap();
        for slot in 0..3 {
            wal.append(record(slot));
        }
        wal.sync();
        wal.compact(vec![record(2)]);
        // Appending through a handle opened before the rename would write
        // to the unlinked old log, and the record would vanish.
        wal.append(record(3));
        wal.sync();
        wal.append(record(4));
        wal.sync();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "c 2 12\nc 3 13\nc 4 14\n"
        );
        let wal: FileWal<u64> = FileWal::open(&path).unwrap();
        assert_eq!(wal.replay(), vec![record(2), record(3), record(4)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn durability_snapshots_and_compacts() {
        let mut log: ReplicatedLog<Command> = ReplicatedLog::new();
        let mut machine = KvStore::default();
        let mut d: Durability<KvStore> = Durability::mem(2);

        // Commit slots 0..3 in order, applying as we go; slot 5 commits
        // out of order and stays above the applied prefix.
        for (slot, cmd) in [(0, Command::put(1, 10)), (1, Command::put(2, 20))] {
            let _ = log.commit(slot, cmd);
            d.log_commit(slot as u64, cmd);
        }
        let _ = log.commit(5, Command::put(9, 90));
        d.log_commit(5, Command::put(9, 90));
        while let Some(cmd) = log.next_applicable().copied() {
            machine.apply(cmd);
            log.mark_applied();
        }
        d.maybe_snapshot(&log, &machine);

        let snap = d.snapshot().expect("cadence of 2 reached");
        assert_eq!(snap.prefix, vec![Command::put(1, 10), Command::put(2, 20)]);
        assert_eq!(snap.machine.digest(), machine.digest());

        // The WAL kept only the record the snapshot does not subsume.
        let (snapshot, records) = d.recover();
        assert!(snapshot.is_some());
        assert_eq!(
            records,
            vec![WalRecord::Commit {
                slot: 5,
                value: Command::put(9, 90)
            }]
        );
    }

    #[test]
    fn recovery_rederives_an_identical_log() {
        let mut log: ReplicatedLog<u64> = ReplicatedLog::new();
        let mut machine = crate::TotalOrder::<u64>::default();
        let mut d: Durability<crate::TotalOrder<u64>> = Durability::mem(3);
        for (slot, v) in [(0u64, 100u64), (2, 300), (1, 200), (3, 400), (6, 700)] {
            let _ = log.commit(slot as usize, v);
            d.log_commit(slot, v);
            while let Some(x) = log.next_applicable().copied() {
                use crate::StateMachine as _;
                machine.apply(&x);
                log.mark_applied();
            }
            d.maybe_snapshot(&log, &machine);
        }

        // Rebuild from scratch: snapshot prefix, then WAL replay.
        let (snapshot, records) = d.recover();
        let mut rebuilt: ReplicatedLog<u64> = ReplicatedLog::new();
        let mut remachine = crate::TotalOrder::<u64>::default();
        if let Some(snap) = snapshot {
            for (i, v) in snap.prefix.iter().enumerate() {
                let _ = rebuilt.commit(i, *v);
            }
            for _ in 0..snap.prefix.len() {
                rebuilt.mark_applied();
            }
            remachine = snap.machine;
        }
        for WalRecord::Commit { slot, value } in records {
            let _ = rebuilt.commit(slot as usize, value);
        }
        while let Some(x) = rebuilt.next_applicable().copied() {
            use crate::StateMachine as _;
            remachine.apply(&x);
            rebuilt.mark_applied();
        }
        assert_eq!(rebuilt.prefix(), log.prefix());
        assert_eq!(rebuilt.applied(), log.applied());
        use crate::StateMachine as _;
        assert_eq!(remachine.digest(), machine.digest());
    }
}
