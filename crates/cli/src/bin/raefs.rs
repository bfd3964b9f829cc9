//! `raefs` — command-line tools for RAE filesystem images.

use rae_blockdev::{BlockDevice, FileDisk};
use rae_cli::{run_tool, Session, ToolError};
use std::io::{BufRead, Write};
use std::sync::Arc;

fn main() {
    // injected panics are caught by RAE; keep stderr clean
    rae_faults::quiet_injected_panics();

    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("shell") {
        let Some(image) = args.get(1) else {
            eprintln!("usage: raefs shell <image>");
            std::process::exit(2);
        };
        std::process::exit(shell(image));
    }
    match run_tool(&args) {
        Ok(out) => {
            if !out.is_empty() {
                println!("{out}");
            }
        }
        Err(e @ ToolError::Usage(_)) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

fn shell(image: &str) -> i32 {
    let dev: Arc<dyn BlockDevice> = match FileDisk::open(image) {
        Ok(d) => Arc::new(d),
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let mut session = match Session::mount(dev) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    println!("raefs shell on {image} — 'help' for commands, 'quit' to exit");
    let stdin = std::io::stdin();
    loop {
        print!("raefs> ");
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("{e}");
                break;
            }
        }
        let line = line.trim();
        if line == "quit" || line == "exit" {
            break;
        }
        match session.run(line) {
            Ok(out) if out.is_empty() => {}
            Ok(out) => println!("{}", out.trim_end()),
            Err(e) => println!("{e}"),
        }
    }
    match session.unmount() {
        Ok(()) => {
            println!("unmounted");
            0
        }
        Err(e) => {
            eprintln!("unmount failed: {e}");
            1
        }
    }
}
