package perfbench

/** One reported number. `value` is printed with all its digits. */
final case class Metric(name: String, value: Double, unit: String)

/** What one run of one workload produced: the metrics the result line
  * carries, plus context (host, noise, sample counts, seed) that goes only
  * into the human-readable report and the results file.
  */
final case class RunResult(
    correct: Boolean,
    attempted: Long,
    failed: Long,
    metrics: Seq[Metric],
    info: Seq[(String, Any)],
    errors: Seq[String]
)

object Stats {

  private def sortedCopy(xs: Array[Double]): Array[Double] = { val s = xs.clone(); java.util.Arrays.sort(s); s }

  /** Nearest-rank percentile (p in (0, 100]) of an unsorted sample. */
  def percentile(xs: Array[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of an empty sample")
    val s = sortedCopy(xs)
    s(math.min(s.length - 1, math.max(0, math.ceil(p / 100.0 * s.length).toInt - 1)))
  }

  def median(xs: Array[Double]): Double = {
    require(xs.nonEmpty, "median of an empty sample")
    val s = sortedCopy(xs)
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  def mean(xs: Array[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.length

  /** Number of samples strictly above the p-th percentile. */
  def beyond(xs: Array[Double], p: Double): Int = {
    val cut = percentile(xs, p)
    xs.count(_ > cut)
  }
}

/** Minimal JSON writer for the result line and the results file. */
object Json {

  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case '\t' => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    b += '"'
    b.result()
  }

  /** Doubles print in full (`Double.toString`); non-finite values are not
    * JSON, so they print as null.
    */
  def value(v: Any): String = v match {
    case null => "null"
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int => n.toString
    case n: Long => n.toString
    case b: Boolean => b.toString
    case s: String => str(s)
    case m: Metric => obj(Seq("value" -> m.value, "unit" -> m.unit))
    case kv: Seq[_] if kv.forall(_.isInstanceOf[(_, _)]) =>
      obj(kv.map { case (k, x) => k.toString -> x })
    case xs: Iterable[_] => xs.map(value).mkString("[", ", ", "]")
    case other => str(other.toString)
  }

  def obj(fields: Seq[(String, Any)]): String =
    fields.map { case (k, v) => s"${str(k)}: ${value(v)}" }.mkString("{", ", ", "}")

  /** The one-line result the benchmark's contract asks for. */
  def resultLine(r: RunResult): String = obj(Seq(
    "correct" -> r.correct,
    "attempted" -> r.attempted,
    "failed" -> r.failed,
    "metrics" -> r.metrics.map(m => m.name -> m),
  ))
}

/** Wall time of each stage of a run, so the cost of a run outside its
  * measured seconds is visible.
  */
final class StageClock {
  private var last = System.nanoTime()
  private val stages = Seq.newBuilder[(String, Any)]
  def mark(stage: String): Unit = {
    val now = System.nanoTime()
    stages += stage -> (now - last) / 1e9
    last = now
  }
  def result: Seq[(String, Any)] = stages.result()
}
