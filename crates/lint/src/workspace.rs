//! Workspace-member discovery: lint coverage is *derived*, not declared.
//!
//! PR 1's hardcoded `ENGINE_CRATES` list silently missed every crate
//! added after it was written. The analyzer now walks the `members`
//! globs of the root `Cargo.toml`, so a new crate is covered the moment
//! it joins the workspace; exclusion is an explicit, justified entry in
//! [`OPT_OUT`], reviewed like any other code change.

use std::path::{Path, PathBuf};

/// Workspace members excluded from analysis, each with its standing
/// justification. Every entry is a path prefix relative to the root.
///
/// Keep this list *short* — the whole point of derived coverage is that
/// opting out is loud.
pub const OPT_OUT: [(&str, &str); 1] = [(
    "vendor/",
    "offline API stand-ins for external crates (proptest/serde); \
     they mirror foreign interfaces and never run inside a simulation",
)];

/// One covered workspace member.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Member {
    /// Workspace-relative crate directory, e.g. `crates/protocols`.
    pub rel: String,
}

impl Member {
    /// Per-crate lint configuration, derived from the crate's role.
    pub fn config(&self) -> crate::FileConfig {
        crate::FileConfig {
            // simcore owns the simulated clock and the seeded RNG — it is
            // the one place allowed to define those abstractions (it still
            // must not *read* ambient sources, but its API mentions them).
            check_ambient: self.rel != "crates/simcore",
        }
    }
}

/// Parse the `members = [...]` globs out of the root `Cargo.toml` and
/// expand them against the filesystem. Errors are strings so the CLI can
/// print them without a panic path.
pub fn discover(root: &Path) -> Result<Vec<Member>, String> {
    let manifest = root.join("Cargo.toml");
    let text = std::fs::read_to_string(&manifest)
        .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
    let globs = member_globs(&text)?;
    let mut members = Vec::new();
    for glob in &globs {
        for dir in expand_glob(root, glob)? {
            let rel = dir
                .strip_prefix(root)
                .unwrap_or(&dir)
                .to_string_lossy()
                .replace('\\', "/");
            if OPT_OUT
                .iter()
                .any(|(p, _)| rel.starts_with(p) || rel == p.trim_end_matches('/'))
            {
                continue;
            }
            if dir.join("Cargo.toml").is_file() {
                members.push(Member { rel });
            }
        }
    }
    members.sort_by(|a, b| a.rel.cmp(&b.rel));
    members.dedup();
    if members.is_empty() {
        return Err("workspace member discovery found no crates".to_string());
    }
    Ok(members)
}

/// Extract the `members` array entries from a `[workspace]` table. A
/// purpose-built scan, not a TOML parser: the root manifest is ours and
/// keeps the array literal on consecutive lines.
fn member_globs(manifest: &str) -> Result<Vec<String>, String> {
    let start = manifest
        .find("members")
        .ok_or("no `members` key in root Cargo.toml")?;
    let open = manifest[start..]
        .find('[')
        .ok_or("members key has no `[` array")?
        + start;
    let close = manifest[open..]
        .find(']')
        .ok_or("members array is unterminated")?
        + open;
    let mut globs = Vec::new();
    for part in manifest[open + 1..close].split(',') {
        let part = part.trim().trim_matches('"').trim();
        if !part.is_empty() {
            globs.push(part.to_string());
        }
    }
    if globs.is_empty() {
        return Err("members array is empty".to_string());
    }
    Ok(globs)
}

/// Expand one member glob (`crates/*` or a literal path) to directories.
fn expand_glob(root: &Path, glob: &str) -> Result<Vec<PathBuf>, String> {
    if let Some(prefix) = glob.strip_suffix("/*") {
        let base = root.join(prefix);
        let rd = std::fs::read_dir(&base)
            .map_err(|e| format!("cannot read member dir {}: {e}", base.display()))?;
        let mut out: Vec<PathBuf> = rd
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        out.sort();
        Ok(out)
    } else {
        Ok(vec![root.join(glob)])
    }
}

/// Recursively collect `.rs` files under a member's `src/` in sorted
/// order. Integration `tests/`, `benches/`, and fixture directories are
/// deliberately out of scope: test code is exempt from the lint families
/// by design (it may panic and use throwaway RNG seeds freely).
pub fn member_sources(root: &Path, member: &Member) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let src = root.join(&member.rel).join("src");
    if src.is_dir() {
        collect_rs(&src, &mut files)?;
    }
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_globs_parse_the_root_manifest_shape() {
        let globs = member_globs("[workspace]\nmembers = [\"crates/*\", \"vendor/*\"]\n").unwrap();
        assert_eq!(globs, vec!["crates/*", "vendor/*"]);
    }

    #[test]
    fn missing_members_key_is_an_error() {
        assert!(member_globs("[package]\nname = \"x\"\n").is_err());
    }

    #[test]
    fn discovery_covers_every_crate_and_skips_vendor() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap();
        let members = discover(root).unwrap();
        let rels: Vec<&str> = members.iter().map(|m| m.rel.as_str()).collect();
        // The PR-1 coverage gap: these were silently unlinted before.
        for must in [
            "crates/core",
            "crates/stats",
            "crates/workload",
            "crates/bench",
            "crates/lint",
            "crates/protocols",
        ] {
            assert!(rels.contains(&must), "{must} missing from {rels:?}");
        }
        assert!(
            rels.iter().all(|r| !r.starts_with("vendor/")),
            "vendor stand-ins must stay opted out: {rels:?}"
        );
    }

    #[test]
    fn simcore_is_ambient_exempt_everyone_else_is_not() {
        let sim = Member {
            rel: "crates/simcore".into(),
        };
        let other = Member {
            rel: "crates/protocols".into(),
        };
        assert!(!sim.config().check_ambient);
        assert!(other.config().check_ambient);
    }
}
