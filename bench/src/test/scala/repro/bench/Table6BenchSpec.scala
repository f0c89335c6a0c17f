package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Table 6: PDX-BOND pruning power (Δd=1, K=10), distance-to-means order. */
class Table6BenchSpec extends AnyFunSuite {

  test("Table 6: PDX-BOND pruning power") {
    val (table, cells) = PruningPower.table6(BenchConfig.pruningCatalog)
    BenchUtil.report("table6_bond_pruning", table)

    cells.foreach { case (label, s) =>
      assert(s.best >= s.p50 && s.p50 >= s.p25 && s.p25 >= s.worst, label)
      assert(s.best > 10.0, s"$label best pruning power ${s.best} too low")
    }
  }

  test("PDX-BOND pruning power is below ADSampling's on most datasets (paper shape)") {
    val (_, bond) = PruningPower.table6(BenchConfig.pruningCatalog)
    val (_, ads) = PruningPower.table2(BenchConfig.pruningCatalog)
    val below = bond.keys.count(label => bond(label).p50 <= ads(label).p50 + 5.0)
    assert(below >= bond.size / 2, s"BOND beats ADS p50 on ${bond.size - below}/${bond.size} datasets")
  }
}
