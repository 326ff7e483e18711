//! Disk persistence for the evaluation cache.
//!
//! One file per entry, content-addressed by the evaluation key: the file
//! name embeds the 64-bit bucket hash *and* an independent FNV hash of
//! the full key byte stream, so two designs colliding on the bucket hash
//! land in different files. Every read re-verifies the stored key bytes
//! and an end-of-file checksum against the probe key; any mismatch —
//! truncation, corruption, a colliding name — is a counted miss
//! (`sizing.eval.cache_disk_corrupt`), never a wrong hit. Writes go to a
//! per-process temp file followed by an atomic rename, so a crash
//! mid-write leaves at worst an orphaned `.tmp-*` file that is never
//! probed, and concurrent writers of the same entry race benignly (last
//! rename wins with identical bytes).
//!
//! ## On-disk format (version 1)
//!
//! ```text
//! offset  size  field
//! 0       8     magic "LSECACHE"
//! 8       4     format version (u32 LE) = 1
//! 12      8     bucket hash (u64 LE)          — must equal the probe key's
//! 20      8     key length N (u64 LE)
//! 28      N     key byte stream               — must equal the probe key's
//! 28+N    88    11 × f64 LE performance row (Table-1 order)
//! 28+N+88 8     FNV-1a checksum of bytes [0, 28+N+88) (u64 LE)
//! ```

use crate::eval::{EvalKey, Performance};
use losac_obs::Counter;
use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Disk lookups that verified byte-for-byte and were served (also counted
/// as ordinary `sizing.eval.cache_hit`s by the in-memory layer).
pub(crate) static EVAL_CACHE_DISK_HIT: Counter = Counter::new("sizing.eval.cache_disk_hit");
/// Disk entries that existed but failed verification (bad magic, short
/// file, checksum or key-byte mismatch). Served as misses.
pub(crate) static EVAL_CACHE_DISK_CORRUPT: Counter = Counter::new("sizing.eval.cache_disk_corrupt");
/// Disk writes that failed (full disk, permissions). The cache keeps such
/// an entry in memory instead; persistence is best-effort.
pub(crate) static EVAL_CACHE_DISK_WRITE_ERROR: Counter =
    Counter::new("sizing.eval.cache_disk_write_error");

const MAGIC: &[u8; 8] = b"LSECACHE";
const FORMAT_VERSION: u32 = 1;
/// Offset basis for the *file-name* and *checksum* FNV hash — deliberately
/// different from [`crate::eval::FnvHasher`]'s so the name hash is
/// independent of the bucket hash computed over the same bytes.
const ALT_BASIS: u64 = 0x6c73_6563_6163_6865; // "lsecache"
const PERF_FIELDS: usize = 11;

/// FNV-1a over `bytes` from an explicit basis.
fn fnv1a(basis: u64, bytes: &[u8]) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The performance row as a fixed-order value array (Table-1 order; the
/// same order every serialisation in the workspace uses).
pub(crate) fn perf_to_values(p: &Performance) -> [f64; PERF_FIELDS] {
    [
        p.dc_gain_db,
        p.gbw,
        p.phase_margin,
        p.slew_rate,
        p.cmrr_db,
        p.offset,
        p.output_resistance,
        p.input_noise_rms,
        p.thermal_noise_density,
        p.flicker_noise_density,
        p.power,
    ]
}

pub(crate) fn perf_from_values(v: [f64; PERF_FIELDS]) -> Performance {
    Performance {
        dc_gain_db: v[0],
        gbw: v[1],
        phase_margin: v[2],
        slew_rate: v[3],
        cmrr_db: v[4],
        offset: v[5],
        output_resistance: v[6],
        input_noise_rms: v[7],
        thermal_noise_density: v[8],
        flicker_noise_density: v[9],
        power: v[10],
    }
}

/// A directory of persisted cache entries shared across processes.
#[derive(Debug)]
pub(crate) struct DiskStore {
    dir: PathBuf,
    tmp_seq: AtomicU64,
}

impl DiskStore {
    /// Open (creating if needed) the store at `dir`.
    pub(crate) fn open(dir: PathBuf) -> io::Result<Self> {
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// Content-addressed path of `key`'s entry.
    fn entry_path(&self, key: &EvalKey) -> PathBuf {
        self.dir.join(format!(
            "e{:016x}-{:016x}.lsec",
            key.hash,
            fnv1a(ALT_BASIS, &key.bytes)
        ))
    }

    /// Load and byte-verify `key`'s entry. `None` on absence or on any
    /// verification failure (counted on `cache_disk_corrupt`).
    pub(crate) fn load(&self, key: &EvalKey) -> Option<Performance> {
        let data = match fs::read(self.entry_path(key)) {
            Ok(d) => d,
            Err(_) => return None,
        };
        match decode(&data, key) {
            Some(perf) => {
                EVAL_CACHE_DISK_HIT.incr();
                Some(perf)
            }
            None => {
                EVAL_CACHE_DISK_CORRUPT.incr();
                None
            }
        }
    }

    /// Persist `key → perf`, best-effort: temp file in the same
    /// directory, fsync, atomic rename. Failures are counted and return
    /// `false`, so the caller can keep the entry in memory instead.
    pub(crate) fn save(&self, key: &EvalKey, perf: &Performance) -> bool {
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let write = || -> io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&encode(key, perf))?;
            f.sync_all()?;
            fs::rename(&tmp, self.entry_path(key))
        };
        let saved = write().is_ok();
        if !saved {
            EVAL_CACHE_DISK_WRITE_ERROR.incr();
            let _ = fs::remove_file(&tmp);
        }
        saved
    }
}

fn encode(key: &EvalKey, perf: &Performance) -> Vec<u8> {
    let mut out = Vec::with_capacity(28 + key.bytes.len() + 8 * PERF_FIELDS + 8);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&key.hash.to_le_bytes());
    out.extend_from_slice(&(key.bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(&key.bytes);
    for v in perf_to_values(perf) {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    let sum = fnv1a(ALT_BASIS, &out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

fn decode(data: &[u8], key: &EvalKey) -> Option<Performance> {
    // Checksum over everything before the trailing 8 bytes.
    if data.len() < 8 {
        return None;
    }
    let (body, sum_bytes) = data.split_at(data.len() - 8);
    let stored_sum = u64::from_le_bytes(sum_bytes.try_into().ok()?);
    if fnv1a(ALT_BASIS, body) != stored_sum {
        return None;
    }
    let mut cur = body;
    if take(&mut cur, MAGIC.len())? != MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(take(&mut cur, 4)?.try_into().ok()?);
    if version != FORMAT_VERSION {
        return None;
    }
    let hash = u64::from_le_bytes(take(&mut cur, 8)?.try_into().ok()?);
    let len = u64::from_le_bytes(take(&mut cur, 8)?.try_into().ok()?) as usize;
    if hash != key.hash || len != key.bytes.len() {
        return None;
    }
    if take(&mut cur, len)? != &*key.bytes {
        return None;
    }
    let mut values = [0.0; PERF_FIELDS];
    for v in &mut values {
        *v = f64::from_bits(u64::from_le_bytes(take(&mut cur, 8)?.try_into().ok()?));
    }
    cur.is_empty().then(|| perf_from_values(values))
}

fn take<'a>(cur: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if cur.len() < n {
        return None;
    }
    let (head, rest) = cur.split_at(n);
    *cur = rest;
    Some(head)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::FnvHasher;

    fn key(tag: &str) -> EvalKey {
        let mut h = FnvHasher::new();
        h.write_str(tag);
        h.write_f64(1.5);
        h.into_key()
    }

    fn perf() -> Performance {
        perf_from_values([
            70.5, 42e6, 61.2, 55e6, 88.0, 1.2e-3, 1.7e6, 88e-6, 9.8e-9, 1.1e-6, 1.9e-3,
        ])
    }

    #[test]
    fn encode_decode_roundtrip_is_bitwise() {
        let k = key("roundtrip");
        let p = perf();
        let enc = encode(&k, &p);
        let dec = decode(&enc, &k).expect("verified decode");
        assert_eq!(
            perf_to_values(&dec).map(f64::to_bits),
            perf_to_values(&p).map(f64::to_bits)
        );
    }

    #[test]
    fn wrong_key_or_any_corruption_fails_verification() {
        let k = key("victim");
        let enc = encode(&k, &perf());
        // A different key must not verify even against an intact file.
        assert!(decode(&enc, &key("attacker")).is_none());
        // Truncation at every length fails.
        for cut in 0..enc.len() {
            assert!(decode(&enc[..cut], &k).is_none(), "cut at {cut}");
        }
        // Flipped bits at every byte position fail: in the checksum
        // itself, or in the body it covers.
        for i in 0..enc.len() {
            for mask in [0x01, 0x40, 0x80, 0xFF] {
                let mut bad = enc.clone();
                bad[i] ^= mask;
                assert!(decode(&bad, &k).is_none(), "flip {mask:#04x} at {i}");
            }
        }
    }

    #[test]
    fn store_roundtrip_and_corrupt_file_is_a_miss() {
        let dir = std::env::temp_dir().join(format!("losac-persist-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = DiskStore::open(dir.clone()).unwrap();
        let k = key("stored");
        assert!(store.load(&k).is_none(), "cold store misses");
        store.save(&k, &perf());
        let corrupt_before = EVAL_CACHE_DISK_CORRUPT.get();
        assert_eq!(store.load(&k), Some(perf()));
        assert_eq!(EVAL_CACHE_DISK_CORRUPT.get(), corrupt_before);
        // Corrupt the entry on disk: verified load becomes a counted miss.
        let path = store.entry_path(&k);
        let mut data = fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        fs::write(&path, &data).unwrap();
        assert!(store.load(&k).is_none());
        assert_eq!(EVAL_CACHE_DISK_CORRUPT.get(), corrupt_before + 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
