//! Quickstart: the three layers of TinyEVM in one file.
//!
//! 1. Execute EVM bytecode with the customized, resource-limited VM.
//! 2. Deploy a contract on a simulated CC2538-class device and see what it
//!    costs in time and energy.
//! 3. Sign and verify an off-chain payment the way the devices do.
//!
//! Run with: `cargo run --example quickstart`

use tinyevm::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. The customized EVM ------------------------------------------------
    let code =
        asm::assemble("PUSH1 0x15 PUSH1 0x02 MUL PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN")?;
    let mut evm = Evm::new(EvmConfig::cc2538());
    let result = evm.execute(&code, &[])?;
    println!("[evm] 21 * 2 = {}", U256::from_be_slice(&result.output)?);
    println!(
        "[evm] executed {} instructions, peak stack {} words, {} bytes of memory",
        result.metrics.instructions,
        result.metrics.max_stack_pointer,
        result.metrics.memory_high_water
    );

    // --- 2. Deployment on the device ------------------------------------------
    let runtime = asm::assemble(
        "PUSH1 0x00 CALLDATALOAD PUSH1 0x02 MUL PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN",
    )?;
    let init_code = asm::wrap_as_init_code(&runtime);
    let mut device = Device::openmote_b("quickstart-node");
    let (deployed, time) = device.deploy_contract(&init_code, &[])?;
    println!(
        "[device] deployed a {}-byte contract in {:?} on a 32 MHz Cortex-M3 model",
        deployed.runtime_code.len(),
        time
    );

    // --- 3. Signed off-chain payments -----------------------------------------
    let (signature, sign_time) = device.sign_payload(b"5 milli-eth for one hour of parking");
    println!(
        "[crypto] ECDSA signature produced in {:?} (hardware crypto engine model)",
        sign_time
    );
    let mut verifier = Device::openmote_b("parking-operator");
    let signer = verifier.verify_payload_with(b"5 milli-eth for one hour of parking", |digest| {
        signature.recover_address(digest).ok()
    });
    println!(
        "[crypto] verified — payment signed by {}",
        signer
            .map(|a| a.to_hex())
            .unwrap_or_else(|| "nobody".into())
    );
    assert_eq!(signer, Some(device.address()));

    let report = device.energy_report();
    println!(
        "[energy] the quickstart cost the device {:.2} mJ ({}% of it in the crypto engine)",
        report.total_energy_mj(),
        (report.share_of(PowerState::CryptoEngine) * 100.0).round()
    );
    Ok(())
}
