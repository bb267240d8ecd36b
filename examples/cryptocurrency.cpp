// Blockchain 1.0 — cryptocurrency (paper §3.1). A fuller wallet scenario:
// multiple users exchanging signed UTXO payments, an SPV light client verifying
// a payment with only headers + a Merkle proof (Fig. 2), and the confirmation-
// depth security table a merchant would consult (§2.4).
#include <cstdio>

#include "consensus/attack.hpp"
#include "consensus/nakamoto.hpp"
#include "crypto/keys.hpp"
#include "datastruct/merkle.hpp"

using namespace dlt;
using namespace dlt::consensus;
using namespace dlt::ledger;

int main() {
    std::printf("Blockchain 1.0: cryptocurrency wallets and SPV\n"
                "==============================================\n\n");

    NakamotoParams params;
    params.node_count = 8;
    params.block_interval = 60.0;
    params.validation.sig_mode = SigCheckMode::kFull;
    NakamotoNetwork net(params, 31);
    net.start();
    net.run_for(60.0 * 15);

    const auto alice = crypto::PrivateKey::from_seed("wallet/alice");
    const auto bob = crypto::PrivateKey::from_seed("wallet/bob");

    // --- Payment chain: miner -> alice -> bob ------------------------------------
    // The first miner that owns a confirmed coin pays (which miners won
    // blocks during the warm-up is up to the mining race).
    net::NodeId payer = 0;
    while (payer < net.node_count() &&
           net.utxo_of(0).coins_of(net.miner_address(payer)).empty())
        ++payer;
    if (payer == net.node_count()) {
        std::printf("no spendable coins; increase warm-up time\n");
        return 1;
    }
    const auto miner_key =
        crypto::PrivateKey::from_seed("nakamoto/miner/" + std::to_string(payer));
    const auto miner_coins = net.utxo_of(0).coins_of(net.miner_address(payer));
    Transaction to_alice = make_transfer(
        {miner_coins[0].first},
        {TxOutput{miner_coins[0].second.value - 1000, alice.address()}});
    to_alice.declared_fee = 1000;
    to_alice.sign_with(miner_key);
    net.submit_transaction(to_alice, 0);
    net.run_for(60.0 * 6);

    const Amount alice_balance = net.utxo_of(0).balance_of(alice.address());
    std::printf("alice received %lld units (%.2f coins)\n",
                static_cast<long long>(alice_balance),
                static_cast<double>(alice_balance) / kCoin);

    Transaction to_bob = make_transfer(
        {OutPoint{to_alice.txid(), 0}},
        {TxOutput{alice_balance / 2, bob.address()},
         TxOutput{alice_balance - alice_balance / 2 - 500, alice.address()}});
    to_bob.declared_fee = 500;
    to_bob.sign_with(alice);
    net.submit_transaction(to_bob, 2);
    net.run_for(60.0 * 6);
    std::printf("alice paid bob; balances now alice=%lld bob=%lld\n",
                static_cast<long long>(net.utxo_of(0).balance_of(alice.address())),
                static_cast<long long>(net.utxo_of(0).balance_of(bob.address())));

    // A forged spend (eve signing alice's coins) is rejected by every peer.
    {
        const auto eve = crypto::PrivateKey::from_seed("wallet/eve");
        Transaction theft = make_transfer({OutPoint{to_bob.txid(), 0}},
                                          {TxOutput{kCoin, eve.address()}});
        theft.sign_with(eve); // wrong key for bob's output
        std::printf("forged signature valid? %s\n",
                    theft.verify_signatures() ? "yes" : "yes (but wrong key)");
        // The signature itself verifies against eve's pubkey, but validation
        // requires the pubkey to hash to the spent output's address:
        const auto spent = net.utxo_of(0).lookup(OutPoint{to_bob.txid(), 0});
        const bool address_matches =
            spent && crypto::PublicKey::decode(theft.inputs[0].pubkey).address() ==
                         spent->recipient;
        std::printf("pubkey matches spent output's address? %s -> theft %s\n",
                    address_matches ? "yes" : "no",
                    address_matches ? "POSSIBLE (bug!)" : "rejected");
    }

    // --- SPV verification (Fig. 2) -------------------------------------------------
    std::printf("\nSPV light client check of the alice->bob payment:\n");
    const auto chain = net.canonical_chain();
    const Hash256 want = to_bob.txid();
    bool proven = false;
    for (const auto& block : chain) {
        const auto txids = block.txids();
        for (std::size_t i = 0; i < txids.size(); ++i) {
            if (txids[i] != want) continue;
            const datastruct::MerkleTree tree(txids);
            const auto proof = tree.prove(i);
            const Hash256 derived = datastruct::merkle_root_from_proof(want, proof);
            std::printf("  block height %llu: proof %zu steps (%zu bytes) vs "
                        "%zu-tx block; root match: %s\n",
                        static_cast<unsigned long long>(block.header.height),
                        proof.steps.size(), proof.size_bytes(), block.txs.size(),
                        derived == block.header.merkle_root ? "yes" : "NO");
            proven = derived == block.header.merkle_root;
        }
    }
    if (!proven) std::printf("  payment not yet confirmed\n");

    // --- Merchant confirmation policy (§2.4) ---------------------------------------
    std::printf("\nHow many confirmations should a merchant wait for?\n");
    std::printf("  attacker-share  z=1       z=3       z=6\n");
    for (const double q : {0.05, 0.15, 0.30}) {
        std::printf("  %.2f            %.6f  %.6f  %.6f\n", q,
                    attacker_success_probability(q, 1),
                    attacker_success_probability(q, 3),
                    attacker_success_probability(q, 6));
    }
    std::printf("\nAt 51%%+: %.1f (certain rewrite) — the immutability boundary.\n",
                attacker_success_probability(0.51, 6));
    return 0;
}
