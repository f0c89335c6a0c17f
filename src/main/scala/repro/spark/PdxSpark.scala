package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, LongType, StructField, StructType}
import repro.core._
import repro.prune.Bond
import scala.jdk.CollectionConverters._

/** One PDX block as a Spark row — the per-partition columnar block format
  * (repro-hint layering: blocks ↔ Parquet rowgroups, built and scanned
  * inside executors). `data` is dimension-major with stride `n`. No Spark
  * query uses a BSA bound, so the row carries no suffix norms.
  */
final case class PdxBlockRow(
    ids: Array[Long],
    n: Int,
    d: Int,
    data: Array[Float],
    means: Array[Float]
) {
  def toBlock: PdxBlock = PdxBlock(ids, n, d, data, means, Array.emptyFloatArray)
}

object PdxBlockRow {
  def from(b: PdxBlock): PdxBlockRow = PdxBlockRow(b.ids, b.n, b.d, b.data, b.means)
}

/** Spark-side PDX: pack a vector DataFrame into per-partition PDX blocks
  * and run dimension-by-dimension KNN inside executors.
  *
  * Layering (DESIGN.md §3): the layout is a `Dataset[PdxBlockRow]` built by
  * `mapPartitions` (i); a query is one Spark job over the blocks' RDD, in
  * which each partition runs the PDXearch core and returns its top-k, and
  * the driver merges those k-lists with a [[KnnHeap]] by (dist, id) (ii);
  * and the same scan is exposed to Spark SQL as the `pdx_block_knn` UDF
  * (iii). Exact variants stay exact under this parallelization: each
  * partition runs its own START phase, and the merge of per-partition exact
  * top-k is the exact top-k.
  *
  * Cache the blocks (`pack(...).cache()`) before their first query: the
  * queries run on `blocks.rdd`, which Spark plans once per Dataset, so
  * blocks cached only after their first query are packed again by every
  * query.
  */
object PdxSpark {

  /** (id LONG, vec ARRAY<FLOAT>) DataFrame from local vectors, ids 0…n−1,
    * repartitioned into `numPartitions` partitions. The shuffle stays: a
    * DataFrame over `sparkContext.parallelize` keeps each slice of the rows
    * in its partition object, which every later task over the cached blocks
    * then ships (17 MB a task for 100 000 × 128 floats in 3 partitions;
    * warm `knnBond` p50 +60%).
    */
  def toVectorDF(spark: SparkSession, vecs: Seq[Array[Float]],
                 numPartitions: Int): DataFrame = {
    require(numPartitions > 0, s"numPartitions must be positive, got $numPartitions")
    import spark.implicits._
    vecs.zipWithIndex.map { case (v, i) => (i.toLong, v) }.toDF("id", "vec").repartition(numPartitions)
  }

  /** Pack a vector DataFrame into PDX blocks, one stream of blocks per
    * partition. A non-positive `blockSize` fails here, on the driver.
    */
  def pack(df: DataFrame, blockSize: Int = PdxLayout.DefaultBlockSize): Dataset[PdxBlockRow] = {
    require(blockSize > 0, s"blockSize must be positive, got $blockSize")
    val spark = df.sparkSession
    import spark.implicits._
    df.select(col("id").cast("long"), col("vec"))
      .as[(Long, Array[Float])]
      .mapPartitions { it =>
        it.grouped(blockSize).map { group =>
          val vecs = group.map(_._2).toIndexedSeq
          val ids = group.map(_._1).toIndexedSeq
          PdxBlockRow.from(PdxLayout.packOne(vecs, ids, vecs.head.length, withSuffixNorms = false))
        }
      }
  }

  /** Exact distributed KNN: per-partition PDX linear scan, global top-k.
    * Runs its one Spark job at once and returns the answer as a local
    * (id LONG, dist DOUBLE) DataFrame sorted ascending by (dist, id).
    * Cache `blocks` before its first query (see the object doc). A NaN or
    * infinite query value fails here on the driver, before any job.
    */
  def knnExact(blocks: Dataset[PdxBlockRow], query: Array[Float], k: Int): DataFrame = {
    require(k > 0, s"k must be positive, got $k")
    LinearScan.requireFiniteQuery(query)
    globalTopK(blocks, k)(it => LinearScan.pdxKnn(it, query, k))
  }

  /** Distributed PDX-BOND KNN: per-partition PDXearch with the exact
    * partial-distance pruner in distance-to-means order; global top-k.
    * Exact — equals `knnExact` up to float tie noise. Cache `blocks` before
    * its first query (see the object doc). Checks the query as `knnExact`
    * does.
    */
  def knnBond(blocks: Dataset[PdxBlockRow], query: Array[Float], k: Int): DataFrame = {
    require(k > 0, s"k must be positive, got $k")
    LinearScan.requireFiniteQuery(query)
    val d = query.length
    globalTopK(blocks, k)(it => new PdxSearcher(k).search(it, query, new Bond(d, Bond.DistanceToMeans)))
  }

  private val KnnSchema = StructType(Seq(
    StructField("id", LongType, nullable = false), StructField("dist", DoubleType, nullable = false)))

  /** Runs `topK` on each partition's blocks in one job over `blocks.rdd`
    * (planned once per Dataset, so over the cache when the blocks were
    * cached before the first query) and merges the per-partition k-lists
    * into one [[KnnHeap]] on the driver. The result is a local DataFrame,
    * (id LONG, dist DOUBLE) sorted ascending by (dist, id): collecting it
    * runs no second job.
    */
  private def globalTopK(blocks: Dataset[PdxBlockRow], k: Int)(
      topK: Iterator[PdxBlock] => KnnHeap): DataFrame = {
    val perPartition =
      blocks.rdd.mapPartitions(it => Iterator.single(topK(it.map(_.toBlock)).sorted)).collect()
    val heap = new KnnHeap(k)
    perPartition.foreach(_.foreach { case (id, dist) => heap.push(id, dist) })
    val rows = heap.sorted.map { case (id, dist) => Row(id, dist.toDouble) }
    blocks.sparkSession.createDataFrame(rows.asJava, KnnSchema)
  }

  /** Register the `pdx_block_knn(data, n, d, ids, query, k)` UDF: scans one
    * PDX block dimension-at-a-time and returns its local top-k as
    * `array<struct<id, dist>>` — the SQL-facing dimension-scan path. A NaN
    * or infinite query value fails the query, naming its position.
    */
  def registerUdf(spark: SparkSession): Unit = {
    spark.udf.register(
      "pdx_block_knn",
      (data: Seq[Float], n: Int, d: Int, ids: Seq[Long], query: Seq[Float], k: Int) => {
        val q = query.toArray
        LinearScan.requireFiniteQuery(q)
        // A linear scan never reads the block means, so zeros stand in.
        val block = PdxBlock(ids.toArray, n, d, data.toArray, new Array[Float](d),
                             Array.emptyFloatArray)
        LinearScan.pdxKnn(Iterator.single(block), q, k).sorted
          .map { case (id, dist) => (id, dist.toDouble) }
      }
    )
  }
}
