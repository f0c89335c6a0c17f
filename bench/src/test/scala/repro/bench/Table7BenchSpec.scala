package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Table 7: IVF query runtime breakdown on the OpenAI-like dataset for
  * N-ary/PDX ADSampling, N-ary/PDX BSA, and PDX BOND.
  */
class Table7BenchSpec extends AnyFunSuite {

  test("Table 7: query runtime breakdown") {
    val (table, rows) = BreakdownBench.run(BenchConfig.breakdownSpec, targetRecall = BenchConfig.breakdownTargetRecall)
    BenchUtil.report("table7_breakdown", table)

    val byName = rows.map(r => r.name -> r).toMap
    // Paper shape: the PDX versions win the scan phase (distance + bounds)
    // against their N-ary counterparts. Totals at reproduction scale are
    // dominated by the O(D²) query transform, identical for both layouts,
    // so the end-to-end comparison gets a noise margin (EXPERIMENTS.md).
    def scanMs(name: String) = byName(name).distMs + byName(name).boundsMs
    assert(scanMs("PDX ADS") < scanMs("N-ary ADS") * 1.05,
           s"PDX ADS scan ${scanMs("PDX ADS")} vs N-ary ${scanMs("N-ary ADS")}")
    assert(byName("PDX ADS").distMs < byName("N-ary ADS").distMs,
           s"PDX ADS dist ${byName("PDX ADS").distMs} vs N-ary ${byName("N-ary ADS").distMs}")
    assert(byName("PDX BSA").distMs < byName("N-ary BSA").distMs * 1.05,
           s"PDX BSA dist ${byName("PDX BSA").distMs} vs N-ary ${byName("N-ary BSA").distMs}")
    assert(byName("PDX ADS").totalMs < byName("N-ary ADS").totalMs * 1.10)
    assert(byName("PDX BSA").totalMs < byName("N-ary BSA").totalMs * 1.10)
    // Bounds evaluation stays a modest share of PDX query time (paper: 1.9%
    // ADS / 5.9% BSA). The N-ary bounds column is a calibrated ALU-cost
    // attribution that cannot see interleaving branch stalls, so absolute
    // N-ary-vs-PDX bounds comparisons are not asserted (EXPERIMENTS.md).
    assert(byName("PDX ADS").boundsMs / byName("PDX ADS").totalMs < 0.15)
    assert(byName("PDX BSA").boundsMs / byName("PDX BSA").totalMs < 0.25)
    // BOND spends nearly everything on distance calculation (91.9% in paper).
    val bond = byName("PDX BOND")
    assert(bond.distMs / bond.totalMs > 0.5, s"BOND distance share ${bond.distMs / bond.totalMs}")
    // Exact/near-exact recall for the exact method.
    assert(bond.recall > 0.9)
  }
}
