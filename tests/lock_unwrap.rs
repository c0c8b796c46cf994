//! The `lock-unwrap` invariant (DESIGN.md §18), the one workspace rule
//! clippy cannot express at its scope: library code never unwraps a
//! lock guard. A poisoned `Mutex`/`RwLock` recovers with
//! `unwrap_or_else(PoisonError::into_inner)`, so one contained panic
//! does not turn every later caller of the lock into a panic too.
//!
//! The scan drops `//` comments and then every whitespace character,
//! so a call chain split across lines (`.lock()` on one, `.unwrap()` on
//! the next) reads as one run of tokens.

use std::path::{Path, PathBuf};

const GUARDS: [&str; 3] = [".lock()", ".read()", ".write()"];
const UNWRAPS: [&str; 2] = [".unwrap()", ".expect("];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for path in entries.map(|e| e.expect("readable directory entry").path()) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// The guard-then-unwrap chains in `src`, whitespace removed.
fn lock_unwraps(src: &str) -> Vec<String> {
    let code: String = src
        .lines()
        .map(|line| line.split("//").next().unwrap_or_default())
        .flat_map(str::chars)
        .filter(|c| !c.is_whitespace())
        .collect();
    GUARDS
        .iter()
        .flat_map(|g| UNWRAPS.iter().map(move |u| format!("{g}{u}")))
        .filter(|chain| code.contains(chain.as_str()))
        .collect()
}

#[test]
fn library_code_never_unwraps_a_lock_guard() {
    assert_eq!(lock_unwraps("m\n    .lock()\n    .unwrap()\n    .push(1);"), [".lock().unwrap()"]);
    assert_eq!(lock_unwraps("rw.write() // .unwrap()\n"), Vec::<String>::new());
    assert_eq!(
        lock_unwraps("m.lock().unwrap_or_else(PoisonError::into_inner)"),
        Vec::<String>::new()
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    let crates = std::fs::read_dir(root.join("crates")).expect("crates directory");
    for krate in crates {
        rust_files(&krate.expect("readable crate entry").path().join("src"), &mut files);
    }
    assert!(files.len() > 50, "scanned only {} files", files.len());

    let found: Vec<String> = files
        .iter()
        .flat_map(|f| {
            let src = std::fs::read_to_string(f).expect("readable source file");
            lock_unwraps(&src).into_iter().map(move |chain| format!("{}: {chain}", f.display()))
        })
        .collect();
    assert!(
        found.is_empty(),
        "recover poisoned locks with `unwrap_or_else(PoisonError::into_inner)`:\n{}",
        found.join("\n")
    );
}
