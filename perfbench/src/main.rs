//! Command-line entry point; see the library documentation.

use std::path::Path;

use perfbench::bench::{parse_args, run};
use perfbench::host::{calibrate, nproc};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let out = match run(&args, Path::new(".")) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for m in &out.metrics {
        println!("  {:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("  {:<34} {:>18.6} ratio", "fail_frac", out.fail_frac());
    for n in &out.notes {
        println!("  note: {n}");
    }
    for c in &out.checks {
        println!("  check {}: {}", if c.ok { "ok  " } else { "FAIL" }, c.what);
    }
    let cal = calibrate();
    println!(
        "  host: nproc {}, {}/{}, parallel_scaling_2t {:.3}, serial calibration {:.4} s",
        nproc(),
        std::env::consts::OS,
        std::env::consts::ARCH,
        cal.parallel_scaling_2t,
        cal.serial_s
    );
    println!("{}", out.json_line());
}
