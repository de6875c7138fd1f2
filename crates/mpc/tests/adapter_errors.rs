//! Model violations through the CONGEST-on-MPC adapter: every case must
//! surface as `MpcError::Congest` wrapping exactly the `SimError` the
//! CONGEST engines raise, under both topologies and every engine.

use pga_congest::{default_bandwidth_bits, id_bits, Algorithm, Ctx, MsgSize, SimError, Simulator};
use pga_graph::{generators, NodeId};
use pga_mpc::{CongestOnMpc, Engine, MpcError, RunConfig};

/// A payload whose declared size is its value.
#[derive(Clone)]
struct Bits(u32);
impl MsgSize for Bits {
    fn size_bits(&self, _id_bits: usize) -> usize {
        self.0 as usize
    }
}

/// Node `from` sends `outbox` in round `round`; nobody ever finishes.
#[derive(Clone)]
struct Script {
    from: NodeId,
    round: usize,
    outbox: Vec<(NodeId, Bits)>,
}

impl Algorithm for Script {
    type Msg = Bits;
    type Output = ();
    fn round(&mut self, ctx: &Ctx, _inbox: &[(NodeId, Bits)]) -> Vec<(NodeId, Bits)> {
        if ctx.id == self.from && ctx.round == self.round {
            self.outbox.clone()
        } else {
            Vec::new()
        }
    }
    fn is_done(&self, _ctx: &Ctx) -> bool {
        false
    }
    fn output(&self, _ctx: &Ctx) {}
}

#[test]
fn adapter_model_violations_match_the_congest_engines() {
    let n = 40;
    let g = generators::path(n);
    let small = Bits(id_bits(n) as u32);
    let huge = Bits(default_bandwidth_bits(n) as u32 + 1);
    let script = |from: u32, round: usize, outbox: Vec<(u32, &Bits)>| Script {
        from: NodeId(from),
        round,
        outbox: (outbox.into_iter())
            .map(|(to, msg)| (NodeId(to), msg.clone()))
            .collect(),
    };
    let mut fan_out: Vec<(u32, &Bits)> = (0..n as u32)
        .filter(|&v| v != 25)
        .map(|v| (v, &small))
        .collect();
    fan_out.push((0, &small));
    let cases = [
        (
            script(17, 1, vec![(16, &small), (18, &small), (16, &small)]),
            false,
            SimError::DuplicateMessage {
                from: NodeId(17),
                to: NodeId(16),
                round: 1,
            },
        ),
        (
            script(3, 0, vec![(2, &small), (30, &small), (2, &small)]),
            false,
            SimError::IllegalDestination {
                from: NodeId(3),
                to: NodeId(30),
                round: 0,
            },
        ),
        (
            script(38, 2, vec![(39, &small), (39, &huge)]),
            false,
            SimError::DuplicateMessage {
                from: NodeId(38),
                to: NodeId(39),
                round: 2,
            },
        ),
        (
            script(25, 1, fan_out),
            true,
            SimError::DuplicateMessage {
                from: NodeId(25),
                to: NodeId(0),
                round: 1,
            },
        ),
    ];
    for (script, clique, want) in cases {
        let nodes = || vec![script.clone(); n];
        let (sim, adapter) = if clique {
            (
                Simulator::congested_clique(&g),
                CongestOnMpc::congested_clique(&g),
            )
        } else {
            (Simulator::congest(&g), CongestOnMpc::congest(&g))
        };
        let native = sim
            .run_cfg(nodes(), &RunConfig::new().max_rounds(10))
            .unwrap_err();
        assert_eq!(native, want);
        for engine in [Engine::Sequential, Engine::Parallel { threads: 2 }] {
            let cfg = RunConfig::new().engine(engine).max_rounds(10);
            let err = adapter.run_cfg(nodes(), &cfg).unwrap_err();
            assert_eq!(err, MpcError::Congest(want.clone()), "{cfg:?}");
        }
    }
}
