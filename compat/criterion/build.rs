//! Records the compiler version for the machine fingerprint that
//! `Criterion::export_json` attaches to every row.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string());
    println!("cargo:rustc-env=CRITERION_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
