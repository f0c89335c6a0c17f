package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Table 2: ADSampling pruning power (Δd=1, K=10) over the 8-dataset
  * pruning catalog. Paper values for comparison live in EXPERIMENTS.md.
  */
class Table2BenchSpec extends AnyFunSuite {

  test("Table 2: ADSampling pruning power") {
    val (table, cells) = PruningPower.table2(BenchConfig.pruningCatalog)
    BenchUtil.report("table2_adsampling_pruning", table)

    // Shape assertions (loose): pruning exists everywhere, high-D prunes
    // harder than the hardest low-D dataset, and best >= worst by definition.
    cells.foreach { case (label, s) =>
      assert(s.best >= s.p50 && s.p50 >= s.p25 && s.p25 >= s.worst, label)
      assert(s.best > 20.0, s"$label best pruning power ${s.best} too low")
    }
    val highD = cells.filter(_._1.split("/")(1).toInt >= 420).values.map(_.p50)
    assert(highD.forall(_ > 50.0), s"high-D p50 pruning power too low: $highD")
  }
}
