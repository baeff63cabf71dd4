//! Untraced benchmark runs (`--trace 0`): end-to-end metrics only.

fn main() {
    std::process::exit(perfbench::main(false));
}
