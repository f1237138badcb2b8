fn main() {
    std::process::exit(aim2_benchmark::cli::main());
}
