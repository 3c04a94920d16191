//! Every first-party package opts in to `[workspace.lints]`, and the
//! `clippy.toml` those lints read exists: the static gate of DESIGN.md §7
//! covers a crate added later only if its manifest says so.

use std::fs;
use std::path::Path;

#[test]
fn every_first_party_manifest_opts_in_to_the_workspace_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert!(root.join("clippy.toml").is_file(), "clippy.toml is gone");
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        manifests.push(entry.expect("directory entry").path().join("Cargo.toml"));
    }
    assert!(manifests.len() > 10, "found only {manifests:?}");
    for manifest in manifests {
        let text = fs::read_to_string(&manifest).expect("manifest is readable");
        let stanza = text.lines().skip_while(|l| l.trim() != "[lints]").nth(1);
        assert_eq!(
            stanza.map(str::trim),
            Some("workspace = true"),
            "{} lacks `[lints]` / `workspace = true`",
            manifest.display()
        );
    }
}
