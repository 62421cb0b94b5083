//! The paper's motivating scenario end to end: a smart car parks, pays per
//! hour over an off-chain payment channel, and the parking operator settles
//! on-chain when the car leaves.
//!
//! Prints a Table-IV-style energy breakdown and a Figure-5-style current
//! timeline for the vehicle.
//!
//! Run with: `cargo run --example smart_parking`

use std::time::Duration;

use tinyevm::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let deposit = Wei::from_eth_milli(100);
    let price_per_interval = Wei::from_eth_milli(5);
    let intervals = 4;
    println!(
        "Parking session: {intervals} intervals at {price_per_interval} each, deposit {deposit}\n"
    );

    let mut driver = ProtocolDriver::smart_parking(deposit);
    let rounds = driver.run_session(intervals, price_per_interval)?;
    let energy = driver.sender_energy();
    let timeline = driver.sender_timeline().to_vec();
    let settlement = driver.close_and_settle()?;

    println!("== Payments ==");
    for round in &rounds {
        println!(
            "  #{:<2} cumulative {:<26} latency {:>8.1?} (sender active {:>7.1?}, sign {:>7.1?}, register {:>6.1?}) {:>4} bytes on air",
            round.sequence,
            round.cumulative.to_string(),
            round.end_to_end_latency,
            round.sender_active_time,
            round.sender_sign_time,
            round.sender_register_time,
            round.bytes_exchanged,
        );
    }
    let total_latency: Duration = rounds.iter().map(|r| r.end_to_end_latency).sum();
    println!(
        "\nMean payment latency: {:?} (paper reports 584 ms on average)",
        total_latency / rounds.len() as u32
    );

    println!("\n== Settlement ==");
    println!(
        "  paid to parking operator: {}",
        settlement.settlement.to_receiver
    );
    println!(
        "  refunded to the vehicle:  {}",
        settlement.settlement.to_sender
    );
    println!(
        "  on-chain transactions for the whole session: {}",
        settlement.on_chain_transactions
    );

    println!("\n== Vehicle energy (Table IV analogue) ==");
    for state in &energy.states {
        println!(
            "  {:<22} {:>8.1?} at {:>5.1} mA -> {:>6.2} mJ",
            state.state.label(),
            state.time,
            state.current_ma,
            state.energy_mj
        );
    }
    println!(
        "  total: {:.1} mJ over {:?}; crypto engine share {:.0}%",
        energy.total_energy_mj(),
        energy.total_time(),
        energy.share_of(PowerState::CryptoEngine) * 100.0
    );
    println!(
        "  battery estimate: {} payments per 10 kJ AA pair",
        energy.payments_per_battery(10_000.0) * rounds.len() as u64
    );

    println!("\n== Vehicle current timeline (Figure 5 analogue, first 20 entries) ==");
    for entry in timeline.iter().take(20) {
        println!(
            "  t = {:>9.3?}  {:>6.1} mA for {:>9.3?}  ({})",
            entry.start(),
            entry.current_ma(),
            entry.duration(),
            entry.state.label()
        );
    }
    Ok(())
}
