//! The process's one build cache, seen from the serving layer: sessions
//! build their private lanes as copies of the device matrix, and every
//! copy shares the matrix's cache. Its counters are process-wide, so
//! this binary holds this one test.

use ensemble_actors::RestartBudget;
use ensemble_ocl::device_matrix;
use ensemble_serve::{ArbiterPolicy, DevicePool, FairArbiter, TenantSession};
use std::sync::Arc;

/// One GPU dispatch over one uploaded payload.
const SCALE: &str = "
    type data_t is struct ( real [] v )
    type settings_t is opencl struct (
        integer [] worksize;
        integer [] groupsize;
        in data_t input;
        out real [] output
    )
    type dispatchI is interface (
        out settings_t requests;
        out data_t dout;
        in real [] din
    )
    type kernelI is interface ( in settings_t requests )
    stage home {
        opencl <device_index=0, device_type=GPU>
        actor Scale presents kernelI {
            constructor() {}
            behaviour {
                receive req from requests;
                receive d from req.input;
                i = get_global_id(0);
                d.v[i] := d.v[i] * 2.0;
                send d.v on req.output;
            }
        }
        actor Dispatch presents dispatchI {
            constructor() {}
            behaviour {
                ws = new integer[1] of 4;
                gs = new integer[1] of 2;
                i = new in data_t;
                o = new out real[];
                connect dout to i;
                connect o to din;
                config = new settings_t(ws, gs, i, o);
                v = new real[4] of 3.0;
                d = new data_t(v);
                send config on requests;
                send d on dout;
                receive r from din;
                printReal(r[0]);
                stop;
            }
        }
        boot {
            d = new Dispatch();
            k = new Scale();
            connect d.requests to k.requests;
        }
    }";

#[test]
fn two_sessions_run_the_front_end_and_each_lowering_once() {
    let builds = Arc::clone(device_matrix().entries()[0].context.build_cache());
    let counts = || (builds.front_ends(), builds.lowerings());
    let arbiter = Arc::new(FairArbiter::new(ArbiterPolicy::RoundRobin));
    let pool = Arc::new(DevicePool::new(usize::MAX));
    let mut seen = Vec::new();
    for tenant in 1..=2 {
        let session =
            TenantSession::new(tenant, Arc::clone(&arbiter) as _, Arc::clone(&pool), None).unwrap();
        let report = session.run(SCALE, None, RestartBudget::default()).unwrap();
        assert_eq!(report.output, vec!["6"]);
        seen.push(counts());
    }
    // One kernel source: one front end, then a register and a native
    // lowering; the second session's private lanes hit all three.
    assert_eq!(seen, [(1, 2), (1, 2)]);
}
