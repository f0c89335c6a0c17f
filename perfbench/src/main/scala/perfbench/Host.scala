package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import scala.jdk.CollectionConverters._
import scala.util.Try

/** The host a run measured on, and how busy it was while it ran. Both go
  * into every result, so a run on a busy neighbour can be spotted.
  */
object Host {

  private def read(path: String): Option[String] =
    Try(new String(Files.readAllBytes(Paths.get(path))).trim).toOption

  /** nproc, CPU model, per-level cache sizes, JVM version and flags. */
  def describe(): Seq[(String, Any)] = {
    val cpuModel = read("/proc/cpuinfo").flatMap(_.linesIterator.find(_.startsWith("model name")))
      .map(_.split(":", 2)(1).trim).getOrElse("unknown")
    val cacheDir = "/sys/devices/system/cpu/cpu0/cache"
    val caches = Try(Files.list(Paths.get(cacheDir)).iterator().asScala.toSeq).getOrElse(Nil)
      .filter(_.getFileName.toString.startsWith("index")).sortBy(_.toString).flatMap { p =>
        for {
          level <- read(s"$p/level")
          kind <- read(s"$p/type")
          size <- read(s"$p/size")
        } yield s"L$level ${kind.toLowerCase}" -> s"$size (shared by cpus ${read(s"$p/shared_cpu_list").getOrElse("?")})"
      }
    val rt = ManagementFactory.getRuntimeMXBean
    Seq(
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "cpu_model" -> cpuModel,
      "caches" -> caches,
      "jvm" -> s"${rt.getVmName} ${System.getProperty("java.runtime.version")}",
      "jvm_flags" -> rt.getInputArguments.asScala.filterNot(_.startsWith("--add-opens")).mkString(" "),
      "gc" -> ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).mkString(", "),
    )
  }

  /** CPU ticks from the aggregate line of /proc/stat, and the load average. */
  final case class Sample(totalTicks: Long, stealTicks: Long, load1: Double, nanos: Long)

  def sample(): Sample = {
    val ticks = read("/proc/stat").flatMap(_.linesIterator.find(_.startsWith("cpu ")))
      .map(_.split("\\s+").drop(1).map(_.toLong)).getOrElse(Array.empty[Long])
    val load1 = read("/proc/loadavg").map(_.split("\\s+")(0).toDouble).getOrElse(Double.NaN)
    // Field 8 of the cpu line is steal time (proc(5)).
    Sample(ticks.take(8).sum, if (ticks.length > 7) ticks(7) else 0L, load1, System.nanoTime())
  }

  /** Steal ticks and load average between two samples. */
  def noise(from: Sample, to: Sample): Seq[(String, Any)] = Seq(
    "seconds" -> (to.nanos - from.nanos) / 1e9,
    "steal_ticks" -> (to.stealTicks - from.stealTicks),
    "steal_frac" -> (if (to.totalTicks > from.totalTicks)
                       (to.stealTicks - from.stealTicks).toDouble / (to.totalTicks - from.totalTicks)
                     else 0.0),
    "load1_start" -> from.load1,
    "load1_end" -> to.load1,
  )
}
