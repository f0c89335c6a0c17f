package repro.bench

import org.scalatest.funsuite.AnyFunSuite

class BenchUtilSpec extends AnyFunSuite {

  test("geomean of identical values is the value") {
    assert(math.abs(BenchUtil.geomean(Seq(2.0, 2.0, 2.0)) - 2.0) < 1e-12)
  }

  test("geomean of 1 and 4 is 2") {
    assert(math.abs(BenchUtil.geomean(Seq(1.0, 4.0)) - 2.0) < 1e-12)
  }

  test("percentile endpoints") {
    val xs = IndexedSeq(1.0, 2.0, 3.0, 4.0, 5.0)
    assert(BenchUtil.percentile(xs, 0.0) == 1.0)
    assert(BenchUtil.percentile(xs, 1.0) == 5.0)
    assert(BenchUtil.percentile(xs, 0.5) == 3.0)
  }

  test("geomean and percentile reject no values with a message") {
    val e1 = intercept[IllegalArgumentException](BenchUtil.geomean(Seq.empty))
    assert(e1.getMessage.contains("geomean of no values"))
    val e2 = intercept[IllegalArgumentException](BenchUtil.percentile(IndexedSeq.empty, 0.5))
    assert(e2.getMessage.contains("percentile of no values"))
  }

  test("markdownTable shape") {
    val t = BenchUtil.markdownTable(Seq("a", "b"), Seq(Seq("1", "2"), Seq("3", "4")))
    val lines = t.trim.split("\n")
    assert(lines.length == 4)
    assert(lines(0) == "| a | b |")
    assert(lines(1) == "| --- | --- |")
    assert(lines(3) == "| 3 | 4 |")
  }

  test("timePerOp returns a plausible per-op time") {
    val t = BenchUtil.timePerOp(minBatchNanos = 100_000L, reps = 3) {
      BenchUtil.consume(math.sqrt(42.0))
    }
    assert(t > 0.0 && t < 1e7)
  }

  test("report writes bench_results file") {
    BenchUtil.report("selftest", "hello")
    val p = java.nio.file.Paths.get("bench_results", "selftest.md")
    assert(java.nio.file.Files.exists(p))
    assert(new String(java.nio.file.Files.readAllBytes(p), "UTF-8") == "hello\n" + BenchUtil.hostFooter)
  }

  test("the report footer names the CPU, the usable CPUs, the JDK and the commit") {
    val f = BenchUtil.hostFooter
    assert(f.startsWith("Host: ") && f.endsWith(".\n"), f)
    assert(f.contains(s"; ${Runtime.getRuntime.availableProcessors} usable CPUs; "), f)
    assert(f.contains(s"; JDK ${System.getProperty("java.version")}; commit "), f)
    assert(f.linesIterator.length == 1, f)
  }
}
