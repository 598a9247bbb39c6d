//! The controller golden: 512 seeded single-HUB scenarios in which 2–12
//! ports contend for 1–3 outputs, each folded into one digest pinned in
//! [`GOLDEN`]. How the HUB computes a controller attempt may change;
//! what the HUB does may not. A grant, a retry, a reply, a ready signal
//! or a counter that moves changes a digest, and the failure names the
//! seed.
//!
//! Each scenario mixes `test open`s and plain opens with retry, packets
//! and `close all`s, ready signals from downstream, `clear ready` and
//! `set ready`, locks and unlocks, status queries and `read counters`.
//! Half the scenarios send their packet-switched flows as trains (taken
//! whole, or item by item where the HUB refuses); the other half send
//! no train and add `close`, `close input`, `disable port` / `enable
//! port` and `reset`, which the HUB refuses to run over a train. Times
//! lie on a 10 ns grid, and the outside sources' keys fall between the
//! HUB's own wire keys, so same-instant ties between the two happen.
//!
//! On a mismatch the test prints the replacement table.

mod common;

use common::Gen;
use nectar_hub::prelude::*;
use nectar_sim::prelude::*;

const HUB: HubId = HubId::new(0);
/// Issues the supervisor commands.
const MANAGER: PortId = PortId::new(12);
/// The contended outputs; the contenders come in on P0..P11.
const OUTPUTS: [PortId; 3] = [PortId::new(13), PortId::new(14), PortId::new(15)];
const SCENARIOS: u64 = 512;

/// What reaches the HUB from outside.
enum Input {
    Item(PortId, Item),
    Train(PortId, Train),
    Ready(PortId),
}

enum Ev {
    Input(Input),
    Internal(InternalEv),
}

/// The items a train stands for, in order.
fn train_items(train: &Train) -> Vec<Item> {
    let mut items = vec![Item::from(Command::open(true, true, false, HUB, train.out))];
    items.extend((0..train.opens_behind).map(|h| downstream_open(h).into()));
    items.push(train.packet.clone().into());
    items.push(Item::CloseAll);
    items
}

/// The `test open` for the `h`-th HUB after this one.
fn downstream_open(h: u8) -> Command {
    Command::open(true, true, false, HubId::new(1 + h), PortId::new(5))
}

/// A port's incoming fibre: its key and when it is next free.
struct Fibre {
    port: PortId,
    key: u64,
    t: Time,
}

impl Fibre {
    /// Sends `item`; the next item's first byte follows its last after
    /// `gap`.
    fn send(
        &mut self,
        inputs: &mut Vec<(Time, u64, Input)>,
        cfg: &HubConfig,
        item: Item,
        gap: Dur,
    ) {
        let next = self.t + cfg.wire_time(item.wire_bytes()) + gap;
        inputs.push((self.t, self.key, Input::Item(self.port, item)));
        self.t = next;
    }
}

/// One scenario: the HUB and everything that reaches it, each input
/// with its instant and the key of the fibre it arrives on.
fn scenario(seed: u64) -> (Hub, Vec<(Time, u64, Input)>, bool) {
    let mut g = Gen(seed.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let trains = g.chance(2);
    let cfg = HubConfig { flow_control: !g.chance(8), ..HubConfig::prototype() };
    let mut hub = Hub::new(HUB, cfg.clone());
    hub.telemetry_mut().set_enabled(true);
    // Port `p`'s incoming fibre has key `keys[p]`: class 7 is no wire of
    // the HUB's, so with key base 0 the outside keys interleave with the
    // HUB's per-port keys; with a high key base they all sort first.
    if g.chance(4) {
        hub.set_key_base(1 << 40);
    }
    let mut keys: Vec<u64> = (0..16).map(|i| i << 3 | 7).collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, g.below(i as u64 + 1) as usize);
    }

    let contenders = 2 + g.below(11) as u8;
    let outs = &OUTPUTS[..1 + g.below(3) as usize];
    let pick = |g: &mut Gen| outs[g.below(outs.len() as u64) as usize];
    let cmd = |op: UserOp, port: PortId| Item::from(Command::user(op, HUB, port));
    let sup = |op: SupervisorOp, port: PortId| Item::from(Command::supervisor(op, HUB, port));
    let mut inputs = Vec::new();
    let mut packets = 0u64;
    for p in 0..contenders {
        let mut f = Fibre { port: PortId::new(p), key: keys[p as usize], t: g.at(4_000) };
        for _ in 0..1 + g.below(4) {
            let out = pick(&mut g);
            match g.below(10) {
                0..=5 => {
                    let test = !g.chance(4);
                    let behind = g.below(3) as u8;
                    let spacing = if g.chance(2) { Dur::ZERO } else { cfg.transit };
                    packets += 1;
                    let packet = Packet::new(packets, vec![p; g.below(200) as usize]);
                    let key = f.key;
                    let train = Train { out, opens_behind: behind, packet, spacing, route: 0, key };
                    let mut items = train_items(&train);
                    if trains && test {
                        let len = items.iter().map(|i| cfg.wire_time(i.wire_bytes()) + spacing);
                        inputs.push((f.t, key, Input::Train(f.port, train)));
                        f.t = len.fold(f.t, |t, d| t + d);
                    } else {
                        items[0] = Command::open(test, true, g.chance(2), HUB, out).into();
                        for item in items {
                            f.send(&mut inputs, &cfg, item, spacing);
                        }
                    }
                }
                6 => {
                    let lock = UserOp::Lock { retry: true, reply: g.chance(2) };
                    f.send(&mut inputs, &cfg, cmd(lock, out), g.dur(3_000));
                    f.send(&mut inputs, &cfg, cmd(UserOp::Unlock, out), Dur::ZERO);
                }
                7 => {
                    let op = if g.chance(2) { UserOp::ClearReady } else { UserOp::SetReady };
                    f.send(&mut inputs, &cfg, cmd(op, out), Dur::ZERO);
                }
                8 => {
                    let item = match g.below(3) {
                        0 => cmd(UserOp::QueryStatus, out),
                        1 => cmd(UserOp::QueryReady, out),
                        _ => sup(SupervisorOp::ReadCounters, out),
                    };
                    f.send(&mut inputs, &cfg, item, Dur::ZERO);
                }
                _ if trains => f.send(&mut inputs, &cfg, cmd(UserOp::SetReady, out), Dur::ZERO),
                _ => {
                    let item = if g.chance(2) {
                        cmd(UserOp::Close, out)
                    } else {
                        cmd(UserOp::CloseInput, PortId::new(g.below(contenders as u64) as u8))
                    };
                    f.send(&mut inputs, &cfg, item, Dur::ZERO);
                }
            }
            f.t += g.dur(3_000);
        }
    }

    // The manager: supervisor commands, only where no train can be hit.
    let mut f = Fibre { port: MANAGER, key: keys[MANAGER.index()], t: g.at(6_000) };
    for _ in 0..g.below(5) {
        let target =
            if g.chance(2) { pick(&mut g) } else { PortId::new(g.below(contenders as u64) as u8) };
        let gap = g.dur(4_000);
        match g.below(6) {
            _ if trains => f.send(&mut inputs, &cfg, sup(SupervisorOp::ReadCounters, target), gap),
            0 | 1 => {
                f.send(&mut inputs, &cfg, sup(SupervisorOp::DisablePort, target), gap);
                f.send(&mut inputs, &cfg, sup(SupervisorOp::EnablePort, target), Dur::ZERO);
            }
            2 => f.send(&mut inputs, &cfg, sup(SupervisorOp::Reset, target), Dur::ZERO),
            3 => f.send(&mut inputs, &cfg, sup(SupervisorOp::ReadCounters, target), Dur::ZERO),
            4 => f.send(&mut inputs, &cfg, sup(SupervisorOp::ClearCounters, target), Dur::ZERO),
            _ => f.send(&mut inputs, &cfg, cmd(UserOp::Close, target), Dur::ZERO),
        }
        f.t += g.dur(6_000);
    }

    // Downstream peers drain their input queues now and then.
    for &out in outs {
        let mut times: Vec<Time> = (0..g.below(6)).map(|_| g.at(40_000)).collect();
        times.sort();
        times.dedup();
        inputs.extend(times.into_iter().map(|at| (at, keys[out.index()], Input::Ready(out))));
    }
    (hub, inputs, trains)
}

/// What one scenario leaves behind.
#[derive(Debug, Default)]
struct Observed {
    emissions: Vec<(Time, PortId, String)>,
    ready_signals: Vec<(Time, PortId)>,
    opens: Vec<(Time, u8, u8)>,
    counters: HubCounters,
    connections: Vec<(PortId, PortId)>,
    last_command: Time,
    /// Trains the HUB took whole (not part of the digest).
    trains_whole: u64,
}

/// Drives `hub` the way the world does: events pop in `(time, late,
/// key)` order, the HUB is settled before each, its deferred
/// transitions come back keyed by their wire, and a train the HUB
/// refuses arrives item by item with its key. A controller attempt
/// dated at the instant being processed takes its place among that
/// instant's events not yet dispatched, at its key. At the end the HUB
/// is settled through its last command.
fn drive(mut hub: Hub, inputs: Vec<(Time, u64, Input)>) -> Observed {
    let cfg = hub.config().clone();
    let mut eng: Engine<Ev> = Engine::new();
    for (at, key, input) in inputs {
        eng.schedule_at_keyed(at, key, Ev::Input(input));
    }
    let mut seen = Observed::default();
    let (mut fx, mut batch, mut last) = (Effects::new(), Vec::new(), Time::ZERO);
    let mut late_at = None;
    while let Some(now) = eng.step_batch(&mut batch) {
        let late = late_at == Some(now);
        (late_at, last) = (Some(now), now);
        // Dispatched from the back: ascending keys.
        batch.reverse();
        while let Some((key, ev)) = batch.pop() {
            hub.settle(now, Tie { late, key });
            match ev {
                Ev::Input(Input::Item(port, item)) => hub.item_arrives(now, port, item, &mut fx),
                Ev::Input(Input::Train(port, train)) => {
                    match hub.train_arrives(now, port, train, &mut fx) {
                        Ok(()) => seen.trains_whole += 1,
                        Err(train) => {
                            let mut at = now;
                            for (i, item) in train_items(&train).into_iter().enumerate() {
                                let next = at + cfg.wire_time(item.wire_bytes()) + train.spacing;
                                if i == 0 {
                                    hub.item_arrives(now, port, item, &mut fx);
                                } else {
                                    let ev = Ev::Input(Input::Item(port, item));
                                    eng.schedule_at_keyed(at, key, ev);
                                }
                                at = next;
                            }
                        }
                    }
                }
                Ev::Input(Input::Ready(port)) => hub.ready_signal_arrives(now, port, &mut fx),
                Ev::Internal(ie) => hub.internal(now, ie, &mut fx),
            }
            for em in fx.emissions.drain(..) {
                seen.emissions.push((em.at, em.port, em.item.to_string()));
            }
            for tr in fx.trains.drain(..) {
                let train = format!("train of {} opens, {}", tr.opens, tr.packet);
                seen.emissions.push((tr.at, tr.port, train));
            }
            for rs in fx.ready_signals.drain(..) {
                seen.ready_signals.push((rs.at, rs.port));
            }
            for int in fx.internal.drain(..) {
                let key = hub.wire_key(int.ev.port(), int.ev.wire());
                if int.at == now && matches!(int.ev, InternalEv::CtrlExec { .. }) {
                    let i = batch.partition_point(|&(k, _)| k > key);
                    batch.insert(i, (key, Ev::Internal(int.ev)));
                } else {
                    eng.schedule_at_keyed(int.at, key, Ev::Internal(int.ev));
                }
            }
        }
    }
    hub.settle(last.max(hub.last_command_at()), Tie::LAST);
    seen.emissions.sort();
    seen.ready_signals.sort();
    seen.opens = hub
        .telemetry()
        .events()
        .filter_map(|e| match e.kind {
            EventKind::ConnectionOpen { input, output, .. } => Some((e.at, input, output)),
            _ => None,
        })
        .collect();
    seen.opens.sort();
    seen.counters = *hub.counters();
    seen.connections = hub.connections();
    seen.last_command = hub.last_command_at();
    seen
}

/// FNV-1a over everything observed but the train count.
fn digest(seen: &Observed) -> u64 {
    let text = format!(
        "{:?} {:?} {:?} {:?} {:?} {:?}",
        seen.emissions,
        seen.ready_signals,
        seen.opens,
        seen.counters,
        seen.connections,
        seen.last_command
    );
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

#[test]
fn the_controller_does_what_it_did() {
    let mut digests = Vec::new();
    let mut total = HubCounters::default();
    let (mut whole, mut with_trains) = (0, 0);
    for seed in 0..SCENARIOS {
        let (hub, inputs, trains) = scenario(seed);
        let seen = drive(hub, inputs);
        digests.push(digest(&seen));
        let c = seen.counters;
        total.commands_executed += c.commands_executed;
        total.opens_succeeded += c.opens_succeeded;
        total.opens_retried += c.opens_retried;
        total.locks_acquired += c.locks_acquired;
        total.resets += c.resets;
        total.drops += c.drops;
        total.replies_forwarded += c.replies_forwarded;
        whole += seen.trains_whole;
        with_trains += trains as u64;
    }
    // The scenarios exercise what they claim to.
    assert!(with_trains > SCENARIOS / 4 && with_trains < SCENARIOS * 3 / 4, "{with_trains}");
    assert!(whole > 100, "{whole} trains taken whole");
    assert!(total.opens_retried > total.opens_succeeded / 2, "{total:?}");
    assert!(total.locks_acquired > 100 && total.resets > 20 && total.drops > 20, "{total:?}");

    let moved: Vec<u64> =
        (0..SCENARIOS).filter(|&s| digests[s as usize] != GOLDEN[s as usize]).collect();
    if !moved.is_empty() {
        let mut table = String::new();
        for row in digests.chunks(4) {
            let row: Vec<String> = row.iter().map(|d| format!("0x{d:016x},")).collect();
            table += &format!("    {}\n", row.join(" "));
        }
        panic!(
            "{} scenarios moved, first seed {}; replacement table:\n{table}",
            moved.len(),
            moved[0]
        );
    }
}

/// One digest per seed.
#[rustfmt::skip]
const GOLDEN: [u64; SCENARIOS as usize] = [
    0x54f50537c2b1db29, 0xbd6f0e891a27822d, 0x75ad591705fb9cb8, 0x2823aeeb8f7ba8c7,
    0x8e8e09e20df5eb6c, 0xd36b5123a13b95ef, 0x4de9633aa424cff0, 0x3deac3f380e527d0,
    0xd459afd015d193f3, 0x4ee64593323233f2, 0x0c9e5c6b2eba7b32, 0x7c54841cfd3a7f5f,
    0x7459e158fdbf8390, 0x9bcbe278bb33c8e7, 0x86ea0c1a6b9a504c, 0x31dbdfa0665b70d8,
    0xbbbf4e1d53a0569b, 0x0c41144109ec6731, 0x75ab59589f876734, 0x4110459393cffda5,
    0xb1d3d715e3258377, 0x02d4d4a97fc585b7, 0x7ebaba36d67e1b17, 0x2d269ebacabcebf5,
    0x25db998170270610, 0xc68c14d1c4dc2057, 0x66738a4ef48e51dc, 0x49787983ac91a2aa,
    0x49dd38459e4cca19, 0x9ecd5b05e721b3d2, 0x1ab894e9560a70d6, 0xaa5427afa206e630,
    0xacebce776e935d8a, 0x3331ee6a212cb2ce, 0x929a1539b379c147, 0x7b0640a5e3300b26,
    0xe99f4b6cff2e0b65, 0x5455d0ef92315fad, 0xf44902940ff73077, 0xdce8371856f42c2e,
    0xbbb8d256f019c9ec, 0xdb565ff06a1ccf57, 0x36322b2740e71bf6, 0x8a66e475fb5b5e54,
    0x417702fd0d29e516, 0x9ca972c7a8215fca, 0x26e2a004cb4e1b2b, 0x33d64cf2c0f72b93,
    0x002b61b8ce642caf, 0x1ec1263ceadcc215, 0xbe2679bc7e608971, 0x2e7be511c9f65366,
    0x3b68605bee13ed07, 0xfe10e2e6491b3d86, 0x1d488a432f5763af, 0x4096d3173d53aff2,
    0x23adc041f2cd79c2, 0xf42506b4d36aaecb, 0x8d14d19e199d015e, 0x24db216d857f0311,
    0xe6ef30b28768ff0b, 0x680f4f36e85dd5a8, 0xa163956507500ce2, 0x6c5ef3a68f1cb761,
    0xd49599bd3472dbf9, 0x51d56c8a10541be5, 0xc56b7e66e41fb2ec, 0x3cfb840d321e9cbe,
    0xa49bbaa3a507bdba, 0xc4bea6860695d66e, 0xb83883140ed6eb78, 0xff7fa50eea02040c,
    0xe585b07f6a5023fb, 0x269ec5d6cc7dda24, 0x462e230f40a50afc, 0x406f32d1033fc803,
    0x02eef31b4388b964, 0xb1bf90fd52f50f56, 0x5c8d4bfd74b45216, 0x732005c499afdafa,
    0xf154c162c558aef0, 0x2e046b5b0d643267, 0x6994b8f24a362bc8, 0xeed48caa3b3e5639,
    0x18bdaa252d87a4eb, 0x49a4d2417b0c9a35, 0x773758899f701e33, 0x434f290a6c224d8f,
    0xeca8e34785d560c7, 0x93bd89d21ecb8f6a, 0x3d7072cc50490fe4, 0x66cea7d5832b98c0,
    0x56d568c0008f7b57, 0x292b6dcc2d740a29, 0xbf9af11f523cf31a, 0x4fa0808e519ba0e0,
    0x42009c25d38038bf, 0xb2b57a4365cff8ea, 0xe294842b031235b7, 0x1cee70decea1ff2f,
    0x58ec6774da8f59e5, 0xfd676c2d2275c382, 0xf5b01ceab7b29599, 0x2cf21231b67ab590,
    0x86f2249a0acfe203, 0x1283ee75315e6782, 0x9df7851581771783, 0x77a43163ed08407c,
    0x2e83a99f07818234, 0x8d91f4c16a906493, 0x433579f5a011f0a6, 0x071057b4b9bcb4c9,
    0x99642beaaec09a44, 0x9b3dd2f54c17451b, 0x231a14a3b09f3b11, 0x2a4e0b1090e8a19a,
    0x8e55caaa31b63d06, 0x723d6d4699c1261e, 0x23e2b6feb836a0ce, 0x582f23178c9a749e,
    0x4e2d2d9b18f9c545, 0x7f942e2d72c36a98, 0x20984a3100333446, 0xad31379d68ee2434,
    0xf020ad3c665da15a, 0x54b8634491bb8ea7, 0xb1a309eed82f290b, 0xadb144b8b2365cd2,
    0xbddb3717fa10842c, 0xc2d293fdbf1e88fa, 0x987cf3b2a1077447, 0x6ae63d649636d141,
    0xd48e4bd93f4926bd, 0x335b10b67fa48737, 0xf4edec13057c27f2, 0xc36fb7be7bb918d1,
    0x04e008a2b75a9155, 0xfc7a14efa0b49db4, 0xbe3ef09dfae94b11, 0x8a8c8f326c808a3e,
    0xeafe95062ac0e939, 0x22798a30e542d7a9, 0xb8f6e38e98dfdbc1, 0xbe2143baebda2ce6,
    0x33729382363b71d8, 0x7c6196bc1f3a779c, 0xd92eb0a05bebdbe8, 0x94e155063b0ed1a1,
    0x14305d80dbf67e39, 0x7840120c1ce73351, 0x88b0feb2708c06b8, 0x0b27e2bc231e096b,
    0x5522af71b561c66f, 0xa36ef778e887182d, 0xb959a1c2a3378ee1, 0x10f9e998a8a96ec2,
    0xed02a3d8527db06b, 0x8ed4f0bac8fd66d4, 0x702f8737710ec896, 0x6086ed28685b8dc6,
    0x3cb0ea55462a8552, 0x1cc80297599ce8f8, 0xd673a2912d1a2a00, 0x242caadee22209a5,
    0x09dc36c24b70c090, 0x669999f532b5d4be, 0xbe105645e138d018, 0x3efb56d721770b66,
    0xce2b4dc73cb0da3a, 0x7598d97531205a83, 0x5d03bc7253b77f10, 0x644117dd2ea8549b,
    0xb6a9721ca925bc1a, 0x66a6fe5fb916f577, 0xc558e861d7bf9fa0, 0x27a847ebefe5c79f,
    0x054560e335af2b89, 0xef54d5f7f70fe380, 0x90c312d3342f7502, 0x285fc65181c6f2eb,
    0xc0f0b7ead86ef77c, 0x15f64dd1a2933174, 0xab43386eac75dd90, 0x9fa06ff073fb44ad,
    0x3fa0ce8bd7735b77, 0x82315374870cb999, 0x57842e547beedb4e, 0x79462945ea7d9d30,
    0xbfa66160737679b0, 0x412a3454139ce256, 0xf9fbf5d79d142adf, 0x261f9a7b598f1b0d,
    0x8283ad1b7132582d, 0xd5e76f14504e727a, 0xf53cf4c077f44de4, 0x19f7d56e2e0d7c58,
    0x4760fae1fe0ab137, 0x604b4ada9bad3ccf, 0xd2a590d7e6f4602a, 0xa6f619e1001f3d7e,
    0x36c5ccdcbf1ba24a, 0xedb8767bbf47364d, 0x3c054ac318724b9d, 0xa245518b831c9d08,
    0x2a548c493a4751a7, 0x752b05edc5cde4de, 0x1333e02bc9d3fe66, 0xe474312f1668afa4,
    0xf917a708822e0cd5, 0xcb5e7bd2eae09a85, 0xd219bc5af333867f, 0xa47425335ca6d926,
    0x18b783f1b6a00247, 0x64bab3456c519859, 0x3e98126df3cf5ac6, 0xf2f47e21381c8c08,
    0xec76f12e63825580, 0x820d30383c1ac552, 0xdc63d820de9da903, 0x67f7f1c1b85b65ab,
    0x5b31efdfa1eb9cdd, 0x020efaed5ca92af4, 0x55c4edcce92dffeb, 0x4b04bf398eeb701c,
    0xc4e2f4107b99c1c9, 0xbb404084cbc34fcf, 0x6ae3168aec0ab86c, 0xb75e8ed92d0af754,
    0xf59ced125c197fd0, 0x7a26a62162188ae2, 0x98abfe11ee06573a, 0xb2d169f1f621151f,
    0x3ec90ade26852aca, 0x71f592ff496d89f6, 0xb9cf748446d98e29, 0x82c091190a3ec8ef,
    0x5fdc7acafd3f89d4, 0x0b026337bd8f5c81, 0xa3b5d8ff19494e1a, 0x724d8ce4a2c26ddc,
    0x1bcf0b9f2f069390, 0xe647f63c15a7f479, 0xa5b0e916d7101938, 0x179913bfc65eee15,
    0x3c731ae18e58c6bd, 0x1b04566e63ea16e0, 0xbdb79f3f846384e1, 0x5515f1e14dcc0eef,
    0x7a497692618c54cf, 0xdf8a43242c1595d6, 0xd834101e5b19ac78, 0xdd756f78fe96c990,
    0x18e26b3fd8922c92, 0x21a74137e908fa15, 0xc16ac5d89bf50ff6, 0xaa045cdaed70ce9b,
    0x5076fa536e77dd0a, 0xc216db202d563f22, 0x8d5e32887693a3b7, 0x1b1390dd22b8b4f3,
    0x5e41367edf398f89, 0x500f8ac2f707143b, 0xd2b743993329facc, 0x67b3bf64135ac462,
    0xf5e016bcde5fe712, 0x7dfc52276316e6e6, 0x17301545ede05c95, 0x8a1cdeefc9468665,
    0xbcaa7d3c1f7cf80b, 0xb00d3f08dc167ca1, 0x5d3e10041eaeee47, 0xd24199477cc141d1,
    0x26b31d4a46ed9866, 0x88759840c3813973, 0x1e13a844f5348d22, 0xd207aa830da61ed7,
    0x2721ba4ae63a9ebb, 0x653000c6ebb45651, 0x7492ac203168393d, 0xb154d9d5e0dd242a,
    0x9e58c4e70298f309, 0xec9fd665d405fe0a, 0xebebeef0247d8f11, 0x9c6cde55387db6ab,
    0x6e108078f690d02f, 0x30b72f97a41f3b1b, 0x576a0bc66bf118f1, 0x9dd76fa65dd9d04d,
    0x0535d37c8103f7b5, 0x8f68c05c42df7396, 0x3f62268be6bd4a80, 0x070f52fd578acaef,
    0xb006cf54c5bd6859, 0x12d6ab6d4e2c91fa, 0x2658b327fef56820, 0x047093259e0c66f6,
    0x169bb9e2542336e2, 0x66910524e5ee47ab, 0x9947e4c77405b1c6, 0xc6d9fcfd96d0e2ae,
    0xb23058a5199c75e6, 0x494ffef0ee37687f, 0x193919d94f9e8daf, 0xed9466bb9634e665,
    0x355ecec0d2663bf0, 0x9a7bbc91608e6a63, 0xcf6c634224f60913, 0x5fc010e9228155e6,
    0xa7b42b38f460e418, 0x44190c4e67e47193, 0x68291101034c774d, 0xf89c007daaf6280b,
    0x7fac2836bb5ce701, 0x7b601659fe6d3550, 0x3fb57a2398184efa, 0xe9c2df0e1e9b445c,
    0xc18a9bcd2c60b3a9, 0x67332c197fd64c7e, 0x8934f332043db5e9, 0xa0a90d64446dcfcf,
    0xacff8e36f0ee576b, 0x597997ecf3c0fad9, 0xc8392a191359c2f2, 0x73caa7b4269daaf8,
    0xec82a80e89f8d62c, 0x60c6d1a9fd24fe71, 0xf81c1b107e7a0ee7, 0xbd34a4697016c6ea,
    0xe5ef4c517bf237b7, 0x196274bb26142dee, 0xa5e49013f9f1f115, 0xd65644d14a46630d,
    0x7e55ac3d8c6ddb62, 0xe9ee8710b931c1b4, 0x3eef18837ff52e04, 0x4a1c4acf42b8a654,
    0xb3a390fe615c1c99, 0xff6ed65ee06944be, 0x1e62b18fdc3192c2, 0x076118d64d7bc741,
    0xfcc3f943bd046c38, 0xb7a8142666d5d404, 0x2a3cd8fc8e3840e1, 0x68710f465f0add13,
    0x53bd05812b089391, 0xda2e894d6caef68a, 0x2b190772445a7b06, 0xc74cbb2939fd7b25,
    0x1265e21a93a1b5ee, 0xe179acae49a100a1, 0xa5404471a1a923e4, 0x0f1aea35fd0af161,
    0xaf0b7603698522d3, 0x20c3f5235de3b530, 0xb4655625dc5569ba, 0x2496300ddd2954dc,
    0xb0a515b8ad8e6620, 0xa079803c49d79202, 0x4294091ab60da543, 0x291908d1416085c5,
    0x02ea6ceff604edb0, 0x7b8416c46e8f6f96, 0x941b9fcea852e821, 0xeee495402811bf25,
    0x2ee5f8c729c2ca34, 0x9657b3d3aa2ef1d0, 0x957346859ff2292e, 0xb2b73344f049bbeb,
    0x3e8a2b2a7868c57c, 0xccf8f16fac58a67f, 0xa5de63dcfe2d1398, 0xd844d9adfd940de3,
    0x9293fcbba03bfbbc, 0x96baee530953e615, 0xd7b302eb47c58a8a, 0xf4a87853902c0b26,
    0x6f814d7df91fc21d, 0xa72884c7f85f2eaf, 0xde5ba7a7ca8ab4d6, 0x7372f512a70ee837,
    0xd7d83c0f5795371c, 0x9f433de40586377f, 0x5f63d02e16962fd1, 0x2efc3a36fc94ff04,
    0xaefe9931d4c27a25, 0xa7d0c48ac2f2f118, 0xca0096c1f633a338, 0x6c4d33617d06d90a,
    0xa9bc66825e33641e, 0xa8ae027db07938e0, 0xd01776a1908c0951, 0xb0925984c7949949,
    0xc06924d839d2d6a1, 0x1ed49e021a80117d, 0x3adb70b83696f0b7, 0xe6c6d3e03d81531b,
    0xb39b67d69f435223, 0x3308dcd2a0c85482, 0x268e5219a3c92d81, 0xa17c725e720002e4,
    0xd552600b981ac6d7, 0x9afb69423b00e517, 0xcc7e9a7b2b7e281f, 0x502108535153592e,
    0x6b5fa85cebdb35f8, 0x6440d6335698f3d8, 0x95a95aa69ce07c52, 0xa782ce3148d41940,
    0x3aa1c167439efeb2, 0xcfcc1fa244a9ccc8, 0x7d14f0d172cb2169, 0x0b568bcf5a3dff46,
    0x916cf321a6a3b7b4, 0x216ded7873fb8606, 0xe2781bd96eb67ba5, 0x4c9c60b76667e91d,
    0x6e470e37651e068c, 0xaac3d0c1c3a6d564, 0x4f280c14d568450c, 0x0b37280301af08a0,
    0x11ebafcc72315484, 0xf2f2047a5d6faf04, 0xfbc3bf27d9f92935, 0xb37e3a7f8966f802,
    0xfffff7384f370e9f, 0xedebf1cba7d73861, 0x1fc2178631ff6fbf, 0xe6f217929321d3e8,
    0x09b17961e1eb6ab9, 0x41a97c0f1546a426, 0x71b3e262e08d3bed, 0xddf5cf09abc5d814,
    0x19c3c468edcaf0e8, 0x46ddd44b37f991c8, 0xa44df04178481bef, 0xba3008e255ccde50,
    0x6336b521eff2c8a9, 0x00cdaa45294b4680, 0x9d972559dc66210f, 0x7c742c7f71470992,
    0x0258a84ed0e0d23f, 0xa30eff81f29ee7a3, 0x6233eca225b739b5, 0x30f424db3ba1737b,
    0x2bd7ae43a46808f6, 0x197b10222997ff50, 0x23941565645f8b0b, 0x94ef281d06f677f8,
    0xd8e76f73702ca722, 0x3f3782c790a45d5c, 0xbb59f6c510bd2efa, 0xb23b4c1fa4bc372d,
    0xd2bf664b08396332, 0x6f75fb19acbd6393, 0x56fc73b4f75bf79f, 0xba2e03e95fe86d0f,
    0x0172dfa5a91cdfc7, 0xcdfa31f78075719c, 0x89fac0f7c2e4bedf, 0xf03e567393ad8f6a,
    0x392832a4a0558947, 0xa0cdd10176ce1f77, 0x7b54a76ef38a5bfc, 0xeedb073ce237563f,
    0x522044bba193d262, 0x732aa99d5c1022bc, 0xa5ce9a7dc9202f1c, 0x48489d4bc199ef21,
    0xd8259c6c4cb07660, 0x7370446deee9d087, 0x0beee98dd0bc5782, 0x2f9dbd1a732a32dc,
    0x677d7ba2a8e2bff8, 0xd83dbc3d8a262126, 0x5503cfee610ba4e6, 0x8c824a4312ab3f35,
    0x6f90c5c0bfa41b79, 0x125851cb9a82873c, 0x864425c9fa644909, 0xf907be3e5083a590,
    0x0a89d8bc0ebe64d0, 0x44119e5ee4c2aaad, 0x2558ee5566f37450, 0xa525333e31ac4fb8,
    0x1860ed43ea0e8469, 0x688d141779deb24a, 0x3f07a376eff96557, 0xe90fe2b8d0e1d7aa,
    0xfd6f969379ba9bfd, 0xe07d82de96388b80, 0x2e08b27cf751d54b, 0x57d3b9476a664bbc,
    0x4cf033618b856285, 0xb905630c3ea13e72, 0x7e4385cec84fd44d, 0x926baf589d768a9d,
    0xf984ca4aa39d2401, 0xbde92a704d370e7a, 0x53fcd76bc6a3b6b6, 0x342658d609b35798,
    0x2cee03ca16890804, 0x027aef4484f19941, 0xe780e2d907615418, 0x473c59996dbec3a7,
    0x85d6c6bf0737dfff, 0x4bb1b7c5b9a47cb0, 0x638aebb5f8ca7a9d, 0x480ac99e6333c816,
    0x63030969e0372679, 0xbbe4e1500187e0d9, 0x330b3668b05a06f1, 0xd6775e36a69071d9,
];
