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
    assert(new String(java.nio.file.Files.readAllBytes(p), "UTF-8") == "hello")
  }
}
