//! The `nvc` binary as a process: what it does with an environment and a
//! command line it cannot use, and with bytes it cannot read. The
//! `nvc()` runs have stdin closed, so `serve` prints its banner, meets
//! EOF and exits.

use std::io::{BufRead, BufReader, Write};
use std::process::{ChildStderr, Command, Output, Stdio};

/// Runs `nvc args…` with stdin closed and `vars` added to its
/// environment.
fn nvc(args: &[&str], vars: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nvc"))
        .args(args)
        .envs(vars.iter().copied())
        .stdin(Stdio::null())
        .output()
        .expect("nvc starts")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Reads a server's log up to its `{server}: listening on ADDR` banner;
/// returns the address and everything read.
fn listening(log: &mut BufReader<ChildStderr>, server: &str) -> (String, String) {
    let banner = format!("{server}: listening on ");
    let mut seen = String::new();
    loop {
        let mut line = String::new();
        assert!(log.read_line(&mut line).unwrap() > 0, "no listener: {seen}");
        seen.push_str(&line);
        if let Some(rest) = line.strip_prefix(&banner) {
            let addr = rest.split_whitespace().next().unwrap();
            return (addr.trim_end_matches(';').to_string(), seen);
        }
    }
}

/// Writes an untrained `NvConfig::fast()` checkpoint for `nvc hub --model`.
fn checkpoint(name: &str) -> std::path::PathBuf {
    let ckpt = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let model = neurovectorizer::NeuroVectorizer::new(neurovectorizer::NvConfig::fast());
    std::fs::write(&ckpt, model.checkpoint()).unwrap();
    ckpt
}

/// The subcommand alone picks the kernel mode: the servers run fast and
/// training strict, an `NVC_KERNEL_MODE` in the environment changes
/// neither, and `--kernel-mode` is an unknown flag.
#[test]
fn serve_runs_fast_kernels_and_train_strict_whatever_the_environment() {
    let ckpt = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("nvc_cli_kernels.ckpt");
    let out_path = ckpt.to_str().expect("utf-8 path");
    let train = [
        "train",
        "--kernels",
        "2",
        "--iterations",
        "1",
        "--out",
        out_path,
    ];
    for vars in [
        &[][..],
        &[("NVC_KERNEL_MODE", "fsat")],
        &[("NVC_KERNEL_MODE", "strict")],
    ] {
        for (args, banner, kernels) in [
            (&["serve"][..], "nvc serve: ready", "fast kernels"),
            (&train[..], "training on", "strict kernels"),
        ] {
            let out = nvc(args, vars);
            let err = stderr(&out);
            assert!(out.status.success(), "{args:?} {vars:?}: {err}");
            let line = err.lines().find(|l| l.starts_with(banner));
            assert!(
                line.is_some_and(|l| l.contains(kernels)),
                "{args:?} {vars:?}: no `{kernels}` banner in: {err}"
            );
        }
    }

    let out = nvc(&["serve", "--kernel-mode", "fast"], &[]);
    let err = stderr(&out);
    assert!(!out.status.success(), "the flag was accepted: {err}");
    assert!(err.contains("unknown flag `--kernel-mode`"), "{err}");
    assert!(err.contains("usage:"), "no usage text in: {err}");
}

/// `nvc hub --learn` over TCP: the champion is the first `--model`, the
/// learning journal opens at start, the hub answers, and stdin EOF shuts
/// it down cleanly.
#[test]
fn a_learning_hub_answers_and_shuts_down_on_eof() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let ckpt = checkpoint("nvc_cli_learn.ckpt");
    let journal = dir.join("nvc_cli_learn.jsonl");
    let _ = std::fs::remove_file(&journal);
    let spec = format!("prod={}", ckpt.to_str().expect("utf-8 path"));

    let mut child = Command::new(env!("CARGO_BIN_EXE_nvc"))
        .args(["hub", "--model", &spec, "--listen", "127.0.0.1:0"])
        .args([
            "--learn",
            "--learn-journal",
            journal.to_str().expect("utf-8 path"),
        ])
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("nvc starts");
    let mut log = BufReader::new(child.stderr.take().unwrap());
    let (addr, seen) = listening(&mut log, "nvc hub");
    assert!(
        seen.contains("online learning on (champion `prod`"),
        "{seen}"
    );
    assert!(journal.exists(), "the journal opens with the hub");

    let stream = std::net::TcpStream::connect(&addr).expect("hub accepts");
    (&stream).write_all(b"{\"op\":\"ping\"}\n").unwrap();
    let mut pong = String::new();
    BufReader::new(&stream).read_line(&mut pong).unwrap();
    assert!(pong.contains("\"pong\":true"), "{pong}");

    drop(child.stdin.take());
    let status = child.wait().expect("nvc exits");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut log, &mut rest).unwrap();
    assert!(status.success(), "{seen}{rest}");
    assert!(rest.contains("drained and persisted"), "{rest}");
    assert!(journal.exists());
}

/// `nvc registry` over TCP: it answers, and stdin EOF shuts it down
/// with exit status 0.
#[test]
fn a_registry_answers_and_shuts_down_on_eof() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_nvc"))
        .args(["registry", "--listen", "127.0.0.1:0"])
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("nvc starts");
    let mut log = BufReader::new(child.stderr.take().unwrap());
    let (addr, seen) = listening(&mut log, "nvc registry");

    let stream = std::net::TcpStream::connect(&addr).expect("registry accepts");
    (&stream).write_all(b"{\"op\":\"stats\"}\n").unwrap();
    let mut stats = String::new();
    BufReader::new(&stream).read_line(&mut stats).unwrap();
    assert!(stats.contains("\"live_nodes\":0"), "{stats}");

    drop(child.stdin.take());
    let status = child.wait().expect("nvc exits");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut log, &mut rest).unwrap();
    assert!(status.success(), "{seen}{rest}");
    assert!(rest.contains("nvc registry: bye"), "{rest}");
}

/// A hub flag that only qualifies another one is refused without it —
/// by name, before anything loads — rather than silently ignored.
#[test]
fn a_hub_flag_without_the_flag_it_qualifies_is_refused() {
    let ckpt = checkpoint("nvc_cli_qualifiers.ckpt");
    let spec = format!("prod={}", ckpt.to_str().expect("utf-8 path"));
    let hub = ["hub", "--model", &spec, "--listen", "127.0.0.1:0"];
    for (flag, value, needs) in [
        ("--cache-checkpoint-secs", "5", "--cache-file"),
        ("--node", "hub-a", "--announce"),
        ("--advertise", "127.0.0.1:7199", "--announce"),
        ("--learn-journal", "learn.jsonl", "--learn"),
        ("--learn-promotion-log", "promotions.jsonl", "--learn"),
        ("--learn-checkpoint", "challenger.ckpt", "--learn"),
    ] {
        let out = nvc(&[&hub[..], &[flag, value]].concat(), &[]);
        let err = stderr(&out);
        assert!(!out.status.success(), "{flag} alone was accepted: {err}");
        assert!(
            err.contains(&format!("{flag} does nothing without {needs}")),
            "{flag}: {err}"
        );
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
    let out = nvc(&["train", &flag, "2", "--out", out_path], &[]);
    let err = stderr(&out);
    assert!(!out.status.success(), "train ran: {err}");
    assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
    assert!(!ckpt.exists(), "train wrote a checkpoint");
}

/// `nvc serve` over a pipe: a line that is not UTF-8 costs one error
/// answer, not the session — every later line is answered, `shutdown`
/// drains, and the last line is `final_stats`, which names the fast
/// kernels.
#[test]
fn serve_answers_past_a_non_utf8_line_and_drains_on_shutdown() {
    use nvc_obs::Json;

    let mut child = Command::new(env!("CARGO_BIN_EXE_nvc"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("nvc starts");
    let source =
        "float a[64]; float b[64];\nvoid f(int n) { for (int i = 0; i < n; i++) { a[i] = b[i]; } }";
    let mut input = b"{\"op\":\"ping\",\"id\":\"p\"}\n\xff\xfe\n".to_vec();
    let vectorize = nvc_obs::json::obj(vec![
        ("id", Json::from("v")),
        ("source", Json::from(source)),
    ]);
    input.extend(format!("{}\n", vectorize.render()).bytes());
    input.extend(b"{\"op\":\"stats\",\"id\":\"s\"}\n{\"op\":\"shutdown\",\"id\":\"bye\"}\n");
    // Dropping the pipe after the write is EOF, which `shutdown` beats.
    child.stdin.take().unwrap().write_all(&input).unwrap();
    let out = child.wait_with_output().expect("nvc exits");
    assert!(out.status.success(), "{}", stderr(&out));

    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect();
    assert_eq!(
        lines.len(),
        6,
        "four answers, the ack, final_stats:\n{text}"
    );
    let field = |i: usize, k: &str| lines[i].get(k).cloned().unwrap_or(Json::Null);
    assert_eq!(field(0, "pong"), Json::Bool(true));
    let error = field(1, "error");
    assert!(
        error.as_str().unwrap().starts_with("invalid JSON"),
        "{text}"
    );
    assert_eq!(field(2, "model"), Json::from("default"));
    assert_eq!(field(2, "loops").as_array().map(<[_]>::len), Some(1));
    assert_eq!(field(3, "id"), Json::from("s"));
    assert_eq!(field(4, "shutdown"), Json::Bool(true));
    let final_stats = field(5, "final_stats");
    let served = ["models", "default", "requests"]
        .iter()
        .try_fold(&final_stats, |v, k| v.get(k))
        .and_then(Json::as_f64);
    assert_eq!(served, Some(1.0), "{text}");
    assert_eq!(final_stats.get("kernel_mode"), Some(&Json::from("fast")));
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
    let out = nvc(&["experiment", "fig1"], &[]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(String::from_utf8_lossy(&out.stdout), FIG1);

    let out = nvc(&["experiment", "nope"], &[]);
    let err = stderr(&out);
    assert!(!out.status.success(), "`nope` ran: {err}");
    for id in neurovectorizer::experiments::report::IDS {
        assert!(err.contains(id), "no `{id}` in: {err}");
    }

    let out = nvc(&["experiment", "fig1", "--seed", "3"], &[]);
    assert!(!out.status.success(), "a flag was accepted");
    assert!(stderr(&out).contains("unknown flag `--seed`"));
    assert!(out.stdout.is_empty(), "a figure was printed");
}
