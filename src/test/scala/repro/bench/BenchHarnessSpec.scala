package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.data.VectorData

/** Functional smoke tests of the per-table bench harnesses at tiny scale —
  * the real numbers come from `sbt "bench/test"`, these only pin the
  * harness plumbing (tables render, components account, nothing throws).
  */
class BenchHarnessSpec extends AnyFunSuite {

  private val quick = BenchConfig.quickCatalog

  test("MetaTables.table1 renders a row per dataset") {
    val t = MetaTables.table1(quick)
    assert(quick.forall(s => t.contains(s.name)))
  }

  test("MetaTables.table3 renders the JVM row") {
    assert(MetaTables.table3().contains("JVM") ||
           MetaTables.table3().contains(System.getProperty("os.arch")))
  }

  test("PruningTables.table2 runs at quick scale") {
    val (t, cells) = PruningTables.table2(quick.take(2))
    assert(cells.size == 2)
    assert(t.contains("Best"))
  }

  test("PruningTables.table6 runs at quick scale") {
    val (t, cells) = PruningTables.table6(quick.take(2))
    assert(cells.size == 2)
    assert(cells.values.forall(s => s.best >= s.worst))
    assert(t.contains("PDX-BOND"))
  }

  test("KernelBench.measure returns positive timings and sane speedups") {
    val m = KernelBench.measure(KernelBench.L2, KernelBench.Combo(16, 512), quick = true)
    assert(m.naryNanos > 0 && m.pdxNanos > 0 && m.scalarNanos > 0 && m.gatherNanos > 0)
    assert(m.speedup > 0.1 && m.speedup < 100)
  }

  test("KernelBench.combos filters oversized combinations") {
    val cs = KernelBench.combos(Seq(8, 1024), Seq(100, 1000000), maxFloats = 1000000)
    assert(cs.contains(KernelBench.Combo(8, 100)))
    assert(!cs.contains(KernelBench.Combo(1024, 1000000)))
  }

  test("KernelBench group boundaries match Table 4") {
    assert(KernelBench.group(8) == "D=8")
    assert(KernelBench.group(16) == "D=16,32" && KernelBench.group(32) == "D=16,32")
    assert(KernelBench.group(64) == "D>32")
  }

  test("KernelBench.table5 runs at quick scale") {
    val (t, cells) = KernelBench.table5(Seq(32), Seq(512), blockSizes = Seq(16, 64), quick = true)
    assert(cells.keySet == Set(16, 64))
    assert(t.contains("64"))
  }

  test("BreakdownBench runs at quick scale with accounted components") {
    val spec = VectorData.DatasetSpec("quick", 96, 1500, 8, skewed = true, clusters = 8, seed = 777)
    val (t, rows) = BreakdownBench.run(spec, quick = true)
    assert(rows.size == 5)
    rows.foreach { r =>
      assert(r.totalMs > 0, r.name)
      val sum = r.distMs + r.bucketsMs + r.boundsMs + r.prepMs
      assert(sum <= r.totalMs * 1.2 + 0.01, s"${r.name}: components $sum vs total ${r.totalMs}")
      assert(r.recall > 0.5, s"${r.name} recall ${r.recall}")
    }
    assert(t.contains("PDX BOND"))
  }

  test("ExactSearchBench runs at quick scale") {
    val (t, rows) = ExactSearchBench.run(quick.take(2), quick = true)
    assert(rows.size == 2)
    rows.foreach(r => ExactSearchBench.competitors.foreach(c => assert(r.qps(c) > 0)))
    assert(t.contains("Dataset"))
  }

  test("calibrateBoundNanos returns sub-microsecond per-eval cost") {
    val ads = new repro.prune.AdSampling(32, seed = 5)
    val c = BreakdownBench.calibrateBoundNanos(ads, VectorData.gaussian(1, 32, 6).head)
    assert(c > 0 && c < 1000, s"unit bound cost $c ns")
  }

  test("calibrateBoundNanos is 0 at d = 1, where no bound is ever evaluated") {
    val ads = new repro.prune.AdSampling(1, seed = 5)
    assert(BreakdownBench.calibrateBoundNanos(ads, Array(0.5f)) == 0.0)
  }
}
