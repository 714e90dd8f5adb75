//! Provenance records and durable daemon metadata.
//!
//! Every query answer carries a [`Provenance`] — a `run_metadata.json`-style
//! record binding the answer to the exact corpus and cache state it was
//! computed from: the shard store's state tag, the tree cache's state tag,
//! and the ingestion watermark (how many moduli and months the answer
//! covers). The same record is what the daemon commits to disk at each
//! month close (`run_metadata.json`), making the watermark the durable
//! commit point of the month-close protocol (DESIGN.md §10).
//!
//! All files are written atomically through `wk_batchgcd::durable`:
//! payload to `<name>.tmp`, fsync, rename over `<name>`, then fsync of the
//! containing directory (the §8.2 durability guarantee — without the
//! directory fsync a crash can lose a "committed" rename).

use std::collections::HashMap;
use std::io;
use std::path::Path;
use wk_batchgcd::durable;
use wk_cert::MonthDate;
use wk_scan::{ModulusId, VendorId};

use crate::error::ServiceError;

/// Schema tag written into every `run_metadata.json`.
pub const METADATA_SCHEMA: &str = "wk-service/run_metadata/v1";

/// The durable ingestion watermark: what the daemon has committed.
///
/// Written to `run_metadata.json` as the *last* step of a month close —
/// every earlier step (shard append, cache persist, label persist) is
/// recoverable, so the watermark write is the transaction commit point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Watermark {
    /// Number of month-close transactions committed.
    pub months_closed: u32,
    /// The last committed month (`None` before the first close).
    pub last_month: Option<MonthDate>,
    /// Distinct moduli covered by the committed corpus — the `moduli_since`
    /// watermark for the next delta, always read back from disk on restart.
    pub corpus_moduli: u64,
    /// [`wk_batchgcd::ShardStore::state_tag`] of the committed corpus.
    pub corpus_tag: u64,
    /// [`wk_batchgcd::TreeCache::state_tag`] of the committed cache.
    pub cache_tag: u64,
    /// Shard capacity the corpus was written with.
    pub shard_capacity: u64,
}

impl Watermark {
    /// The empty watermark of a freshly initialised service directory.
    pub fn empty(shard_capacity: u64) -> Watermark {
        Watermark {
            months_closed: 0,
            last_month: None,
            corpus_moduli: 0,
            corpus_tag: 0,
            cache_tag: 0,
            shard_capacity,
        }
    }

    /// Render as the `run_metadata.json` document.
    pub fn to_json(&self) -> String {
        let (month_str, month_index) = match self.last_month {
            Some(m) => (format!("\"{m}\""), i64::from(m.index())),
            None => ("null".to_string(), -1),
        };
        format!(
            "{{\n  \"schema\": \"{METADATA_SCHEMA}\",\n  \"months_closed\": {},\n  \"last_month\": {month_str},\n  \"last_month_index\": {month_index},\n  \"corpus_moduli\": {},\n  \"corpus_state_tag\": \"{:#018x}\",\n  \"cache_state_tag\": \"{:#018x}\",\n  \"shard_capacity\": {}\n}}\n",
            self.months_closed, self.corpus_moduli, self.corpus_tag, self.cache_tag, self.shard_capacity,
        )
    }

    /// Parse a `run_metadata.json` document written by [`Watermark::to_json`].
    pub fn from_json(src: &str, path: &Path) -> Result<Watermark, ServiceError> {
        let bad = |message: &str| ServiceError::Metadata {
            path: path.to_path_buf(),
            message: message.to_string(),
        };
        if json_string(src, "schema").as_deref() != Some(METADATA_SCHEMA) {
            return Err(bad("unknown schema"));
        }
        let months_closed = json_u64(src, "months_closed").ok_or_else(|| bad("months_closed"))?;
        let month_index =
            json_i64(src, "last_month_index").ok_or_else(|| bad("last_month_index"))?;
        let last_month = if month_index < 0 {
            None
        } else {
            Some(MonthDate::from_index(
                u32::try_from(month_index).map_err(|_| bad("last_month_index range"))?,
            ))
        };
        Ok(Watermark {
            months_closed: u32::try_from(months_closed).map_err(|_| bad("months_closed range"))?,
            last_month,
            corpus_moduli: json_u64(src, "corpus_moduli").ok_or_else(|| bad("corpus_moduli"))?,
            corpus_tag: json_u64(src, "corpus_state_tag").ok_or_else(|| bad("corpus_state_tag"))?,
            cache_tag: json_u64(src, "cache_state_tag").ok_or_else(|| bad("cache_state_tag"))?,
            shard_capacity: json_u64(src, "shard_capacity").ok_or_else(|| bad("shard_capacity"))?,
        })
    }
}

/// The provenance record attached to every query answer: the watermark the
/// answer was computed under. Identical in content to the committed
/// `run_metadata.json`, so a caller can re-verify an answer against the
/// on-disk state tags.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Provenance {
    /// Shard-store state tag the answer's index was built from.
    pub corpus_tag: u64,
    /// Tree-cache state tag the answer's index was built from.
    pub cache_tag: u64,
    /// Distinct moduli the analysis covers.
    pub corpus_moduli: u64,
    /// Month-close transactions the analysis covers.
    pub months_closed: u32,
    /// Last analyzed month.
    pub last_month: Option<MonthDate>,
}

impl Provenance {
    /// Render as a one-line JSON record.
    pub fn to_json(&self) -> String {
        let month = match self.last_month {
            Some(m) => format!("\"{m}\""),
            None => "null".to_string(),
        };
        format!(
            "{{\"corpus_state_tag\": \"{:#018x}\", \"cache_state_tag\": \"{:#018x}\", \"corpus_moduli\": {}, \"months_closed\": {}, \"last_month\": {month}}}",
            self.corpus_tag, self.cache_tag, self.corpus_moduli, self.months_closed,
        )
    }
}

/// Per-modulus durable metadata: when each modulus was first observed,
/// which vendor its certificate subject named (if any), and the month its
/// factorization first appeared. Persisted as `labels.tsv` alongside the
/// watermark; derived data (the factorizations themselves live in the tree
/// cache), so a stale copy after a crash only costs label freshness, never
/// corpus integrity.
#[derive(Clone, Debug, Default)]
pub struct LabelLedger {
    /// Month each modulus id was first pushed by the feed.
    pub first_seen: HashMap<ModulusId, MonthDate>,
    /// Subject-derived vendor label, where the feed carried one.
    pub subject_vendor: HashMap<ModulusId, VendorId>,
    /// Month each modulus id first showed up factored.
    pub factored_since: HashMap<ModulusId, MonthDate>,
}

impl LabelLedger {
    /// Drop every entry at or past `len` — used after a crash rollback when
    /// the label file outlived the corpus state it described.
    pub fn truncate(&mut self, len: usize) {
        let keep = |id: &ModulusId| (id.0 as usize) < len;
        self.first_seen.retain(|id, _| keep(id));
        self.subject_vendor.retain(|id, _| keep(id));
        self.factored_since.retain(|id, _| keep(id));
    }

    /// Serialize to the `labels.tsv` format.
    pub fn to_tsv(&self) -> String {
        let mut ids: Vec<ModulusId> = self.first_seen.keys().copied().collect();
        ids.sort();
        let mut out =
            String::from("# wk-service labels v1: id\tfirst_seen\tvendor\tfactored_since\n");
        for id in ids {
            let Some(first) = self.first_seen.get(&id) else {
                continue;
            };
            let vendor = self
                .subject_vendor
                .get(&id)
                .map(|v| vendor_token(*v))
                .unwrap_or("-");
            let factored = self
                .factored_since
                .get(&id)
                .map(|m| m.index().to_string())
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!(
                "{}\t{}\t{vendor}\t{factored}\n",
                id.0,
                first.index()
            ));
        }
        out
    }

    /// Parse a `labels.tsv` document written by [`LabelLedger::to_tsv`].
    pub fn from_tsv(src: &str, path: &Path) -> Result<LabelLedger, ServiceError> {
        let bad = |line: usize, message: &str| ServiceError::Metadata {
            path: path.to_path_buf(),
            message: format!("line {line}: {message}"),
        };
        let mut ledger = LabelLedger::default();
        for (i, line) in src.lines().enumerate() {
            let n = i + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let [f_id, f_first, f_vendor, f_factored] = fields.as_slice() else {
                return Err(bad(n, "expected 4 tab-separated fields"));
            };
            let id = ModulusId(f_id.parse().map_err(|_| bad(n, "bad modulus id"))?);
            let first: u32 = f_first
                .parse()
                .map_err(|_| bad(n, "bad first_seen index"))?;
            ledger.first_seen.insert(id, MonthDate::from_index(first));
            if *f_vendor != "-" {
                let vendor =
                    parse_vendor_token(f_vendor).ok_or_else(|| bad(n, "unknown vendor"))?;
                ledger.subject_vendor.insert(id, vendor);
            }
            if *f_factored != "-" {
                let idx: u32 = f_factored
                    .parse()
                    .map_err(|_| bad(n, "bad factored index"))?;
                ledger.factored_since.insert(id, MonthDate::from_index(idx));
            }
        }
        Ok(ledger)
    }
}

/// Stable serialization token for a vendor label.
pub fn vendor_token(v: VendorId) -> &'static str {
    match v {
        VendorId::Juniper => "Juniper",
        VendorId::Innominate => "Innominate",
        VendorId::Ibm => "Ibm",
        VendorId::Siemens => "Siemens",
        VendorId::Cisco => "Cisco",
        VendorId::Hp => "Hp",
        VendorId::Thomson => "Thomson",
        VendorId::FritzBox => "FritzBox",
        VendorId::Linksys => "Linksys",
        VendorId::Fortinet => "Fortinet",
        VendorId::Zyxel => "Zyxel",
        VendorId::Dell => "Dell",
        VendorId::Kronos => "Kronos",
        VendorId::Xerox => "Xerox",
        VendorId::McAfee => "McAfee",
        VendorId::TpLink => "TpLink",
        VendorId::Conel => "Conel",
        VendorId::Adtran => "Adtran",
        VendorId::DLink => "DLink",
        VendorId::Huawei => "Huawei",
        VendorId::Sangfor => "Sangfor",
        VendorId::SchmidTelecom => "SchmidTelecom",
        VendorId::Background => "Background",
    }
}

/// Inverse of [`vendor_token`].
pub fn parse_vendor_token(s: &str) -> Option<VendorId> {
    Some(match s {
        "Juniper" => VendorId::Juniper,
        "Innominate" => VendorId::Innominate,
        "Ibm" => VendorId::Ibm,
        "Siemens" => VendorId::Siemens,
        "Cisco" => VendorId::Cisco,
        "Hp" => VendorId::Hp,
        "Thomson" => VendorId::Thomson,
        "FritzBox" => VendorId::FritzBox,
        "Linksys" => VendorId::Linksys,
        "Fortinet" => VendorId::Fortinet,
        "Zyxel" => VendorId::Zyxel,
        "Dell" => VendorId::Dell,
        "Kronos" => VendorId::Kronos,
        "Xerox" => VendorId::Xerox,
        "McAfee" => VendorId::McAfee,
        "TpLink" => VendorId::TpLink,
        "Conel" => VendorId::Conel,
        "Adtran" => VendorId::Adtran,
        "DLink" => VendorId::DLink,
        "Huawei" => VendorId::Huawei,
        "Sangfor" => VendorId::Sangfor,
        "SchmidTelecom" => VendorId::SchmidTelecom,
        "Background" => VendorId::Background,
        _ => return None,
    })
}

/// Atomically publish `bytes` at `path`: [`durable::write_atomic`] with one
/// part (`<path>.tmp`, fsync, rename, fsync of the directory). The reader
/// either sees the old content or the new — never a torn write, even
/// across power loss (DESIGN.md §8.2).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    durable::write_atomic(path, &[bytes])
}

// --- minimal hand-rolled JSON field readers (no serde in this workspace) ---

/// Raw value substring for `"key": <value>` — up to `,`, `}`, or newline.
fn json_raw<'a>(src: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\"");
    let at = src.find(&pat)?;
    let rest = src.get(at + pat.len()..)?;
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest.get(..end)?.trim_end())
}

/// String-typed field (`"key": "value"`).
fn json_string(src: &str, key: &str) -> Option<String> {
    let raw = json_raw(src, key)?;
    let inner = raw.strip_prefix('"')?.strip_suffix('"')?;
    Some(inner.to_string())
}

/// Unsigned field — accepts a plain number or a quoted `0x...` tag.
fn json_u64(src: &str, key: &str) -> Option<u64> {
    let raw = json_raw(src, key)?;
    if let Some(inner) = raw.strip_prefix('"').and_then(|r| r.strip_suffix('"')) {
        if let Some(hex) = inner.strip_prefix("0x") {
            return u64::from_str_radix(hex, 16).ok();
        }
        return inner.parse().ok();
    }
    raw.parse().ok()
}

/// Signed field (for the `-1` no-month sentinel).
fn json_i64(src: &str, key: &str) -> Option<i64> {
    json_raw(src, key)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_json_roundtrip() {
        let w = Watermark {
            months_closed: 3,
            last_month: Some(MonthDate::new(2012, 3)),
            corpus_moduli: 123,
            corpus_tag: 0xdead_beef_0bad_f00d,
            cache_tag: 42,
            shard_capacity: 64,
        };
        let json = w.to_json();
        let back = Watermark::from_json(&json, Path::new("x")).unwrap();
        assert_eq!(w, back);
        // The empty watermark roundtrips the None month.
        let e = Watermark::empty(16);
        let back = Watermark::from_json(&e.to_json(), Path::new("x")).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn watermark_rejects_garbage() {
        assert!(Watermark::from_json("{}", Path::new("x")).is_err());
        assert!(Watermark::from_json("not json", Path::new("x")).is_err());
        let w = Watermark::empty(4)
            .to_json()
            .replace(METADATA_SCHEMA, "other/schema");
        assert!(Watermark::from_json(&w, Path::new("x")).is_err());
    }

    #[test]
    fn ledger_tsv_roundtrip() {
        let mut ledger = LabelLedger::default();
        ledger
            .first_seen
            .insert(ModulusId(0), MonthDate::new(2012, 1));
        ledger
            .first_seen
            .insert(ModulusId(7), MonthDate::new(2012, 2));
        ledger
            .subject_vendor
            .insert(ModulusId(7), VendorId::Juniper);
        ledger
            .factored_since
            .insert(ModulusId(0), MonthDate::new(2012, 2));
        let tsv = ledger.to_tsv();
        let back = LabelLedger::from_tsv(&tsv, Path::new("x")).unwrap();
        assert_eq!(back.first_seen, ledger.first_seen);
        assert_eq!(back.subject_vendor, ledger.subject_vendor);
        assert_eq!(back.factored_since, ledger.factored_since);
    }

    #[test]
    fn ledger_truncate_drops_new_ids() {
        let mut ledger = LabelLedger::default();
        for i in 0..10u32 {
            ledger
                .first_seen
                .insert(ModulusId(i), MonthDate::new(2012, 1));
        }
        ledger
            .factored_since
            .insert(ModulusId(9), MonthDate::new(2012, 1));
        ledger.truncate(5);
        assert_eq!(ledger.first_seen.len(), 5);
        assert!(ledger.factored_since.is_empty());
    }

    #[test]
    fn vendor_tokens_roundtrip() {
        for v in [
            VendorId::Juniper,
            VendorId::Ibm,
            VendorId::FritzBox,
            VendorId::SchmidTelecom,
            VendorId::Background,
        ] {
            assert_eq!(parse_vendor_token(vendor_token(v)), Some(v));
        }
        assert_eq!(parse_vendor_token("NotAVendor"), None);
    }

    #[test]
    fn atomic_write_publishes_and_cleans() {
        use std::fs;
        use wk_batchgcd::durable::{remove_tmps, tmp_path};
        let dir = wk_batchgcd::scratch_dir("service-prov-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run_metadata.json");
        write_atomic(&path, b"one").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"one");
        // A stray tmp (simulated crash between write and rename) is removed
        // without touching the published file.
        fs::write(tmp_path(&path), b"torn").unwrap();
        remove_tmps(&dir, "").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"one");
        assert!(!tmp_path(&path).exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
