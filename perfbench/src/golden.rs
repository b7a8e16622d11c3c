//! Committed per-job `SimReport` digests, one file per job list under
//! `golden/`, keyed by benchmark seed. `--bless` rewrites the entry of
//! the run's seed from the run's own digests.

use cr_sim::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The committed digests, compiled in so a run reads no repository
/// file.
fn committed(key: &str) -> Option<&'static str> {
    match key {
        "paper_sweep" => Some(include_str!("../golden/paper_sweep.json")),
        "burst_drain" => Some(include_str!("../golden/burst_drain.json")),
        "fault_churn" => Some(include_str!("../golden/fault_churn.json")),
        _ => None,
    }
}

fn path(key: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{key}.json"))
}

/// Parses a golden file: seed → per-job digests.
fn parse(text: &str) -> Result<BTreeMap<u64, Vec<u32>>, String> {
    let json = Json::parse(text).map_err(|e| format!("golden file: {e:?}"))?;
    let Json::Obj(members) = json else {
        return Err("golden file: not an object".into());
    };
    let mut out = BTreeMap::new();
    for (seed, digests) in members {
        let seed: u64 = seed
            .parse()
            .map_err(|_| format!("golden file: bad seed {seed:?}"))?;
        let digests = digests
            .as_str()
            .ok_or_else(|| format!("golden file: seed {seed} is not a string"))?
            .split_whitespace()
            .map(|d| u32::from_str_radix(d, 16))
            .collect::<Result<Vec<u32>, _>>()
            .map_err(|e| format!("golden file: seed {seed}: {e}"))?;
        out.insert(seed, digests);
    }
    Ok(out)
}

fn render(entries: &BTreeMap<u64, Vec<u32>>) -> String {
    let members = entries.iter().map(|(seed, digests)| {
        let hex: Vec<String> = digests.iter().map(|d| format!("{d:08x}")).collect();
        (seed.to_string(), Json::from(hex.join(" ")))
    });
    Json::obj(members).to_pretty() + "\n"
}

/// The committed digests of job list `key` for `seed`, if blessed.
pub fn lookup(key: &str, seed: u64) -> Result<Option<Vec<u32>>, String> {
    let text = committed(key).ok_or_else(|| format!("no golden file for {key}"))?;
    Ok(parse(text)?.remove(&seed))
}

/// Records `digests` as the golden entry of `key` for `seed`.
pub fn bless(key: &str, seed: u64, digests: &[u32]) -> Result<(), String> {
    let path = path(key);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut entries = parse(&text)?;
    entries.insert(seed, digests.to_vec());
    std::fs::write(&path, render(&entries)).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_round_trip() {
        let mut entries = BTreeMap::new();
        entries.insert(10, vec![0xdead_beef, 7]);
        entries.insert(2, vec![]);
        assert_eq!(parse(&render(&entries)).unwrap(), entries);
    }

    #[test]
    fn committed_files_parse() {
        for key in ["paper_sweep", "burst_drain", "fault_churn"] {
            parse(committed(key).unwrap()).unwrap();
        }
    }
}
