//! `simbench` — simulator self-benchmark: how fast does `desim` itself run?
//!
//! Drives the synthetic workloads of [`bgq_bench::simbench`] (timer churn,
//! channel ping-pong, a network-delivery storm through `torus5d::NetState`,
//! and a Fig 4-style sweep through the parallel harness) and reports
//! wall-clock events/sec — for `net_churn`, deliveries/sec — deterministic
//! event totals and peak memory. `--json` writes a fixed-schema document (see
//! `results/BENCH_simbench.json` for the committed golden): event counts and
//! simulated times are deterministic and diffable strictly; `wall_ms` /
//! `mevents_per_sec` / `speedup` / `peak_rss_kb` vary by host and are gated
//! only loosely (perfdiff with a generous tolerance).

use bgq_bench::simbench::{
    fig4_sweep, net_churn, net_churn_timeline, peak_rss_kb, ping_pong, timer_churn, KernelLoad,
};
use bgq_bench::{
    arg_flag, arg_jobs, arg_str, arg_usize, check_args, write_text, JOBS_FLAG, TIMELINE_FLAG,
    TIMELINE_WINDOW_PS,
};
use desim::json::{push_f64, push_str, push_u64};

fn wall_ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn push_load(out: &mut String, name: &str, params: &[(&str, u64)], load: &KernelLoad) {
    push_str(out, name);
    out.push_str(":{");
    for (k, v) in params {
        push_str(out, k);
        out.push(':');
        push_u64(out, *v);
        out.push(',');
    }
    out.push_str("\"events\":");
    push_u64(out, load.events);
    out.push_str(",\"sim_time_ps\":");
    push_u64(out, load.sim_time_ps);
    out.push_str(",\"wall_ms\":");
    push_f64(out, wall_ms(load.wall));
    out.push_str(",\"mevents_per_sec\":");
    push_f64(out, load.mevents_per_sec());
    out.push('}');
}

fn main() {
    check_args(
        "simbench",
        "simulator self-benchmark — kernel events/sec and sweep speedup",
        &[
            ("--quick", false, "small CI-sized workloads"),
            ("--tasks", true, "timer-churn tasks (default 512)"),
            ("--steps", true, "sleeps per churn task (default 2000)"),
            ("--pairs", true, "ping-pong pairs (default 256)"),
            ("--rounds", true, "rounds per ping-pong pair (default 4000)"),
            ("--churn-procs", true, "net-churn ranks (default 512)"),
            ("--churn-msgs", true, "net-churn messages (default 400000)"),
            ("--json", true, "write the fixed-schema result JSON"),
            TIMELINE_FLAG,
            JOBS_FLAG,
        ],
    );
    let quick = arg_flag("--quick");
    let tasks = arg_usize("--tasks", if quick { 128 } else { 512 });
    let steps = arg_usize("--steps", if quick { 500 } else { 2000 });
    let pairs = arg_usize("--pairs", if quick { 64 } else { 256 });
    let rounds = arg_usize("--rounds", if quick { 1000 } else { 4000 });
    let churn_procs = arg_usize("--churn-procs", if quick { 128 } else { 512 });
    let churn_msgs = arg_usize("--churn-msgs", if quick { 50_000 } else { 400_000 });
    let jobs = arg_jobs();
    let sweep_reps = if quick { 8 } else { 16 };
    let sizes = bgq_bench::size_sweep(16, if quick { 1 << 18 } else { 1 << 20 });

    println!("== simbench: desim kernel self-benchmark ==");
    println!(
        "{:<14} {:>14} {:>16} {:>12} {:>14}",
        "workload", "events", "sim time", "wall (ms)", "Mevents/s"
    );
    let churn = timer_churn(tasks, steps);
    println!(
        "{:<14} {:>14} {:>13.3}us {:>12.1} {:>14.2}",
        "timer_churn",
        churn.events,
        churn.sim_time_ps as f64 / 1e6,
        wall_ms(churn.wall),
        churn.mevents_per_sec()
    );
    let pp = ping_pong(pairs, rounds);
    println!(
        "{:<14} {:>14} {:>13.3}us {:>12.1} {:>14.2}",
        "ping_pong",
        pp.events,
        pp.sim_time_ps as f64 / 1e6,
        wall_ms(pp.wall),
        pp.mevents_per_sec()
    );

    let churn_net = net_churn(churn_procs, churn_msgs);
    println!(
        "{:<14} {:>14} {:>13.3}us {:>12.1} {:>14.2}",
        "net_churn",
        churn_net.events,
        churn_net.sim_time_ps as f64 / 1e6,
        wall_ms(churn_net.wall),
        churn_net.mevents_per_sec()
    );

    // --timeline: a separate instrumented net_churn run (leaves the timed
    // run above, and the JSON below, untouched).
    if let Some(path) = arg_str("--timeline") {
        let (_, tl) = net_churn_timeline(
            churn_procs,
            churn_msgs,
            None,
            Some(TIMELINE_WINDOW_PS / 100), // 1 µs windows: churn lasts ~tens of µs
        );
        let doc = desim::TimelineDoc {
            bench: "net_churn".to_string(),
            runs: vec![("net_churn".to_string(), tl.expect("timeline enabled"))],
        };
        write_text(&path, &doc.to_json());
    }

    let (rows_serial, wall_serial) = fig4_sweep(&sizes, 2, sweep_reps, 1);
    let (rows_jobs, wall_jobs) = fig4_sweep(&sizes, 2, sweep_reps, jobs);
    assert_eq!(
        rows_serial, rows_jobs,
        "parallel sweep must match serial bit-for-bit"
    );
    let checksum: f64 = rows_serial.iter().sum();
    let speedup = wall_serial.as_secs_f64() / wall_jobs.as_secs_f64().max(1e-9);
    println!(
        "{:<14} {} points, serial {:.1} ms, --jobs {} {:.1} ms, speedup {:.2}x",
        "fig4_sweep",
        sizes.len(),
        wall_ms(wall_serial),
        jobs,
        wall_ms(wall_jobs),
        speedup
    );
    let rss = peak_rss_kb();
    println!("peak RSS: {rss} kB");

    if let Some(path) = arg_str("--json") {
        let mut o = String::from("{\"schema\":\"simbench-v4\",\"jobs\":");
        push_u64(&mut o, jobs as u64);
        o.push_str(",\"workloads\":{");
        push_load(
            &mut o,
            "timer_churn",
            &[("tasks", tasks as u64), ("steps", steps as u64)],
            &churn,
        );
        o.push(',');
        push_load(
            &mut o,
            "ping_pong",
            &[("pairs", pairs as u64), ("rounds", rounds as u64)],
            &pp,
        );
        o.push(',');
        push_load(
            &mut o,
            "net_churn",
            &[("procs", churn_procs as u64), ("msgs", churn_msgs as u64)],
            &churn_net,
        );
        o.push_str(",\"fig4_sweep\":{\"points\":");
        push_u64(&mut o, sizes.len() as u64);
        o.push_str(",\"reps\":");
        push_u64(&mut o, sweep_reps as u64);
        o.push_str(",\"bw_checksum_mbs\":");
        push_f64(&mut o, (checksum * 10.0).round() / 10.0);
        o.push_str(",\"wall_ms_serial\":");
        push_f64(&mut o, wall_ms(wall_serial));
        o.push_str(",\"wall_ms_jobs\":");
        push_f64(&mut o, wall_ms(wall_jobs));
        o.push_str(",\"speedup\":");
        push_f64(&mut o, speedup);
        o.push_str("}},\"peak_rss_kb\":");
        push_u64(&mut o, rss);
        o.push_str("}\n");
        write_text(&path, &o);
    }
}
