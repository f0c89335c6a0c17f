package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Synthetic embedding data generated inside Spark. */
object SynthData {

  /** Clustered float32 embedding vectors — the schema the PDX paper
    * evaluates on (id LONG, vec ARRAY<FLOAT>). Deterministic per (id, seed):
    * cluster centers are generated on the driver and captured in the UDF
    * closure; each row's noise comes from a Random seeded by its id, so the
    * result is identical regardless of partitioning. `skewed` produces
    * non-negative half-normal marginals (SIFT/GIST-style histograms).
    */
  def embeddings(spark: SparkSession, n: Long, d: Int, clusters: Int = 64,
                 noise: Double = 0.35, skewed: Boolean = false,
                 seed: Long = 42): DataFrame = {
    import spark.implicits._
    val rnd = new java.util.Random(seed)
    val centers: Array[Array[Double]] = Array.fill(clusters) {
      Array.fill(d) {
        val g = rnd.nextGaussian()
        if (skewed) math.abs(g) else g
      }
    }
    val gen = udf { id: Long =>
      val r = new java.util.Random(seed * 1000003L + id)
      val c = centers(r.nextInt(clusters))
      val v = new Array[Float](d)
      var j = 0
      while (j < d) {
        var x = c(j) + r.nextGaussian() * noise
        if (skewed && x < 0) x = -x
        v(j) = x.toFloat
        j += 1
      }
      v
    }
    spark.range(n).select($"id", gen($"id") as "vec")
  }
}
