//! `perfbench --workload <viz|serve_read|serve_write> --seed <n>
//! --seconds <s> --trace <0|1>`: runs one workload and prints, as its last
//! line, `{"correct", "attempted", "failed", "metrics"}`. See README.md.
//! With `--setup-child 1` it times one set-up instead; the benchmark runs
//! itself that way to time set-ups in fresh processes.

use relviz_perfbench::{run, serve, viz, Args};

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_child = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            "--setup-child" => {
                setup_child = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--setup-child takes 0 or 1, not `{value}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        setup_child,
    })
}

fn main() {
    let result = parse_args().and_then(|args| match args.workload.as_str() {
        "viz" => run::<viz::Viz>("viz", &args),
        "serve_read" => run::<serve::ServeRead>("serve_read", &args),
        "serve_write" => run::<serve::ServeWrite>("serve_write", &args),
        other => Err(format!("unknown workload `{other}`")),
    });
    match result {
        Ok(last) => println!("{last}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
